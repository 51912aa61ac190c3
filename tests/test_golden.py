"""Golden-trace regression suite.

``tests/golden/`` holds the rendered quick-mode output table (seed 0)
of every experiment, frozen at the time the references were last
blessed. The comparison is *textual byte equality*: any change to a
success rate, a detector verdict, a measured range or even a column
header fails loudly here — which is exactly what makes refactors such
as the stacked trial pipeline safe to land.

Beyond the 16 free-field tables, the scenario dimension is pinned for
the range/accuracy flagships *and* the defense: ``<EXP>@<scenario>.txt``
freezes T2 and F4 inside a reverberant living room and against a
walking attacker, T3 inside the living room, F8 under TV
interference and the streaming guard (S1 — chunked-vs-offline parity
plus fleet dispositions and stream-time latency) inside the living
room — so neither an environment-model change, a defense-dataset
change nor an online-path change can drift silently.

To re-bless after an intentional change::

    pytest tests/test_golden.py --update-golden

and review the resulting ``tests/golden/`` diff like any other code.
"""

from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.sim.spec import scenario_names

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (experiment, scenario) cells frozen beyond the free-field baseline.
SCENARIO_CASES = [
    ("T2", "living_room"),
    ("T2", "walking_attacker"),
    ("F4", "living_room"),
    ("F4", "walking_attacker"),
    ("T3", "living_room"),
    ("F8", "tv_interference"),
    ("S1", "living_room"),
]


def _check_or_bless(rendered: str, path: Path, label: str, request):
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
        return
    if not path.exists():
        pytest.fail(
            f"no golden fixture for {label}; record one with "
            "`pytest tests/test_golden.py --update-golden`"
        )
    expected = path.read_text()
    assert rendered == expected, (
        f"{label} quick-mode output drifted from "
        f"tests/golden/{path.name}; if the change is intentional, "
        "re-bless with `pytest tests/test_golden.py --update-golden` "
        "and commit the diff"
    )


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_table_matches_golden(name, experiment_tables, request):
    """The rendered quick-mode table is byte-identical to the fixture."""
    rendered = experiment_tables[name].render() + "\n"
    _check_or_bless(rendered, GOLDEN_DIR / f"{name}.txt", name, request)


@pytest.fixture(scope="session")
def scenario_tables():
    """Quick-mode tables (seed 0) for the pinned scenario cells."""
    return {
        (name, scenario): ALL_EXPERIMENTS[name].run(
            quick=True, seed=0, scenario=scenario
        )
        for name, scenario in SCENARIO_CASES
    }


@pytest.mark.parametrize("name,scenario", SCENARIO_CASES)
def test_scenario_table_matches_golden(
    name, scenario, scenario_tables, request
):
    """Scenario-dimension tables are byte-identical to their fixtures."""
    rendered = scenario_tables[(name, scenario)].render() + "\n"
    _check_or_bless(
        rendered,
        GOLDEN_DIR / f"{name}@{scenario}.txt",
        f"{name}@{scenario}",
        request,
    )


def test_no_stale_golden_fixtures():
    """Every golden file maps to a registered experiment (and, for
    ``EXP@scenario`` fixtures, a registered scenario)."""
    stale = []
    for path in GOLDEN_DIR.glob("*.txt"):
        experiment, _, scenario = path.stem.partition("@")
        if experiment not in ALL_EXPERIMENTS:
            stale.append(path.name)
        elif scenario and scenario not in scenario_names():
            stale.append(path.name)
    assert not stale, f"golden fixtures without experiments: {stale}"
