"""Small generated documents through the parser and the whole pipeline: bad
or unusual input ends in a package error or a report, never a traceback,
and no small document takes long."""

from __future__ import annotations

import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spbw.dsl import parse_presentation
from spbw.errors import SpbwError
from spbw.pipeline import run_smooth

# Far above what any generated document takes; the pipeline has no time
# limit of its own, so an exponential step would show up here.
BUDGET_S = 2.0


@st.composite
def documents(draw):
    """A document with one or two generators, optional ``params q`` and
    ``coeffs t``, a random pair relation with a tail, sigma and delta lines,
    no calculus or a theorem-mode or flat one (twists that rescale, some
    with a random tail, wedge constants and a ``dgen`` line), and options.  Some lines are dropped or shuffled, and
    some values are out of range, so many documents are rejected."""
    gens = ["x1", "x2"][: draw(st.integers(1, 2))]
    params = ["q"] if draw(st.booleans()) else []
    coeffs = ["t"] if draw(st.booleans()) else []
    scalars = ["1", "-1", "2", "3", "-2"] + (["q", "q^-1", "-q", "q^2"] if params else [])

    def scalar():
        return draw(st.sampled_from(scalars))

    def poly(symbols, terms=2):
        """A sum of one to ``terms`` terms, each a scalar times at most two
        symbol powers of exponent 1 or 2, or a bare scalar."""
        parts = []
        for _ in range(draw(st.integers(1, terms))):
            factors = [scalar()]
            for _ in range(draw(st.integers(0, 2)) if symbols else 0):
                sym = draw(st.sampled_from(symbols))
                k = draw(st.integers(1, 2))
                factors.append(sym if k == 1 else f"{sym}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    lines = ["name fuzz", "gens " + " ".join(gens)]
    if params:
        lines.append("params q")
    if coeffs:
        lines.append("coeffs t")
    if len(gens) == 2:
        tail = f" + {poly(gens + coeffs)}" if draw(st.booleans()) else ""
        lines.append(f"rel x2 x1 = {scalar()}*x1 x2{tail}")
    for x in gens if coeffs else []:
        if draw(st.booleans()):
            lines.append(f"sigma {x}: t -> {scalar()}*t" + (f" + {scalar()}" if draw(st.booleans()) else ""))
        if draw(st.booleans()):
            lines.append(f"delta {x}: t -> {poly(['t'])}")
    mode = draw(st.sampled_from([None, "theorem", "flat"]))
    if mode is not None:
        lines.append(f"calculus mode={mode}")
    if mode == "flat":
        symbols = coeffs + gens
        dgens = list(symbols)
        if draw(st.booleans()):
            # a direction that is not a symbol, bound by a dgen line
            dgens[-1] = "u"
            lines.append(f"dgen u = {scalar()}*{symbols[-1]}" + (f" + {symbols[0]}" if draw(st.booleans()) else ""))
        lines.append("dgens " + " ".join(dgens))
        for u in dgens:
            for sym in draw(st.lists(st.sampled_from(symbols), max_size=2, unique=True)):
                # a rescaling, or a rescaling plus a random tail
                tail = f" + {poly(symbols)}" if draw(st.booleans()) else ""
                lines.append(f"twist {u}: {sym} -> {scalar()}*{sym}{tail}")
        if len(dgens) > 1 and draw(st.booleans()):
            lines.append(f"wedge {dgens[0]} {dgens[1]} = {scalar()}")
    options = draw(st.dictionaries(
        st.sampled_from(["seed", "dsq_degree", "conn_degree"]),
        st.integers(1, 4),
        max_size=3,
    ))
    if options:
        # now and then one value is 0, below the minimum of the two degrees.
        # Hypothesis leans towards the ends of a range, so the rare branch
        # tests for a value inside it.
        if draw(st.integers(0, 9)) == 5:
            options[min(options)] = 0
        lines.append("options " + " ".join(f"{k}={v}" for k, v in sorted(options.items())))
    if draw(st.integers(0, 9)) == 5:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(draw(st.permutations(lines)) if draw(st.booleans()) else lines) + "\n"


@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(documents())
def test_small_documents_raise_only_package_errors_in_bounded_time(text):
    start = time.perf_counter()
    try:
        run_smooth(parse_presentation(text))
    except SpbwError:
        pass
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{elapsed:.2f} s on\n{text}"
