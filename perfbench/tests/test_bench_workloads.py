"""The generator is a pure function of (workload, seed, pass)."""

import pytest

from spbw import corpus_source, parse_presentation, render_presentation
from workloads import GOLDEN_SEED, PARAMETRIC_BANDS, PASSES, qaffine_doc


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_same_seed_same_inputs(workload):
    assert PASSES[workload](7, 0) == PASSES[workload](7, 0)
    assert PASSES[workload](7, 3) == PASSES[workload](7, 3)


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_other_seed_or_pass_other_inputs(workload):
    assert PASSES[workload](7, 0) != PASSES[workload](8, 0)
    assert PASSES[workload](7, 0) != PASSES[workload](7, 1)


def test_corpus_pass_is_golden_half_then_drawn_half():
    first, second = PASSES["corpus"](1, 0), PASSES["corpus"](2, 0)
    assert first[:9] == second[:9]
    assert all(inp.seed == GOLDEN_SEED and inp.golden for inp in first[:9])
    assert all(inp.golden is None for inp in first[9:])
    assert [inp.seed for inp in first[9:]] != [inp.seed for inp in second[9:]]


def test_reduce_pass_cost_does_not_depend_on_seed():
    def grid(seed):
        return sorted((p.family, p.k) for p in PASSES["reduce"](seed, 0)
                      if p.family in ("weyl", "un2", "jordan"))
    assert grid(1) == grid(2)
    for seed in range(20):
        parametric = [p.k for p in PASSES["reduce"](seed, 0) if p.family == "qplane"]
        assert len(parametric) == len(PARAMETRIC_BANDS)
        assert all(k in band for band, k in zip(PARAMETRIC_BANDS, sorted(parametric)))


def test_generated_documents_parse():
    for inputs in (PASSES["wide"](1, 0), PASSES["reduce"](1, 0)):
        for inp in inputs:
            parse_presentation(inp.text)


def test_qaffine_generator_reproduces_the_corpus_entry():
    ours = render_presentation(parse_presentation(qaffine_doc(3)))
    assert ours == render_presentation(parse_presentation(corpus_source("qaffine3")))
