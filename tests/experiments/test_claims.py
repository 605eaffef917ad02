"""Every row of the claims table holds on the default regeneration, and
each claim table in EXPERIMENTS.md is the report's table for its figure."""

import pathlib
import re

import pytest

from repro.experiments.report import CLAIMS, claims_table, evaluate

EXPERIMENTS_MD = pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- claims: ([^\n]+?) -->\n(.*?)\n<!-- /claims -->",
                   re.S)


@pytest.fixture(scope="module")
def values():
    """One run of every default experiment, shared by every row."""
    return evaluate()[1]


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
