"""Every row of the claims table holds on the default regeneration, and
each claim table in EXPERIMENTS.md is the report's table for its figure."""

import hashlib
import json
import pathlib
import re

import pytest

from repro.experiments.report import CLAIMS, claims_table, evaluate

EXPERIMENTS_MD = pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- claims: ([^\n]+?) -->\n(.*?)\n<!-- /claims -->",
                   re.S)


#: sha256 of the full-precision Figure 4 bandwidths and Figure 5a/5b
#: relative figures of merit at the default seed
FIG4_FIG5_SHA256 = ("1b464db405edc5d35f464e98058e486b"
                    "93fd8968e0fd1f229e05f4b12cca0ded")


@pytest.fixture(scope="module")
def evaluated():
    """One run of every default experiment, shared by every row: the
    results and each claim's value."""
    return evaluate()


@pytest.fixture(scope="module")
def values(evaluated):
    """Each claim id's value on the shared run."""
    return evaluated[1]


def fig4_fig5_digest(runs) -> str:
    """sha256 over ``run_fig4()``'s series and ``run_fig5a()``/
    ``run_fig5b()``'s relative values, floats at full precision."""
    outputs = {"fig4": {c.value: {str(size): bw for size, bw in s.items()}
                        for c, s in runs.fig4.series.items()}}
    for name in ("fig5a", "fig5b"):
        outputs[name] = {c.value: {str(n): v for n, v in rel.items()}
                         for c, rel in getattr(runs, name).relative.items()}
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_fig4_and_fig5_outputs_are_pinned(evaluated):
    """Figures 4 and 5 stay bit-identical: host-side changes to the
    simulator must not move a simulated number.  A change meant to alter
    them must say so and update ``FIG4_FIG5_SHA256``, as for
    ``test_golden_pingpong.GOLDEN``."""
    assert fig4_fig5_digest(evaluated[0]) == FIG4_FIG5_SHA256


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(claim, values):
    value = values[claim.id]
    assert claim.holds(value), f"measured {value!r}, band {claim.band()}"


def test_experiments_md_tables_are_the_reports(values):
    """Refresh EXPERIMENTS.md by copying ``python -m repro report``'s
    tables when this fails."""
    blocks = dict(BLOCK.findall(EXPERIMENTS_MD.read_text(encoding="utf-8")))
    figures = dict.fromkeys(claim.figure for claim in CLAIMS)
    assert blocks == {figure: claims_table(figure, values)
                      for figure in figures}
