"""The zero-timed report of every sweep text, pinned by its sha256.

The nine goldens pin the corpus reports byte for byte; this digest pins the
reports of the whole sweep (``conftest.sweep_texts``): the corpus but
``broken``, the wide documents and the Ore grid, each with and without its
wedge lines.  A report that drifts is named by its label.

To regenerate ``golden/sweep.sha256`` after a deliberate report change::

    cd tests && PYTHONPATH=../src python -c "import test_sweep_digest as t; t.write_digest()"
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from spbw.dsl import parse_presentation
from spbw.pipeline import run_smooth

from conftest import sweep_texts

DIGEST = Path(__file__).parent / "golden" / "sweep.sha256"


def _digest_lines():
    """One ``<sha256>  <label>`` line per sweep text, in sweep order."""
    lines = []
    for label, text in sweep_texts():
        report = run_smooth(parse_presentation(text)).to_json(zero_timing=True)
        lines.append(f"{hashlib.sha256(report.encode('utf-8')).hexdigest()}  {label}")
    return lines


def write_digest():
    DIGEST.write_text("\n".join(_digest_lines()) + "\n", encoding="utf-8")


def test_every_sweep_report_matches_its_digest():
    want = DIGEST.read_text(encoding="utf-8").splitlines()
    got = _digest_lines()
    assert len(got) == 208
    assert [line.split("  ", 1)[1] for line in got] == [line.split("  ", 1)[1] for line in want]
    drifted = [g.split("  ", 1)[1] for g, w in zip(got, want) if g != w]
    assert not drifted, f"reports drifted: {drifted}"
