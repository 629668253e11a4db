"""Each section of ``tests/diagnostics.py`` at its smallest size prints
what it is there to show, and every interpreter it starts exits 0."""

import re

import pytest

import diagnostics

SECTIONS = {  # smallest sizes, and what the output must show
    "command_usage": ([["crb --trials 1"]], ["peak rss"]),
    "library_sweep": ([1], ["cli imported False"]),
    "import_cpu": ([1], ["cached", "package from", "all from"]),
    "import_times": ([1], ["ms  ofdm_sync_lab"]),
    "unreached": ([1], [" never enter "]),
    "stage_high_water": ([1, 1, 1], [" picks ", " draw ", " observe ",
                                     " searches ", " Fisher "]),
    "package_size": ([], ["@dataclass classes"]),
}


@pytest.mark.parametrize("name", SECTIONS)
def test_section_prints_what_it_shows(name, capfd):
    sizes, shown = SECTIONS[name]
    getattr(diagnostics, name)(*sizes)
    out = capfd.readouterr().out
    assert set(re.findall(r"exit (-?\d+)", out)) <= {"0"}, out
    assert all(text in out for text in shown), out
