"""Synthesis draws the Mersenne Twister directly, byte for byte.

``ProgramBuilder`` and ``TraceWalker`` call ``Random.random`` and
``Random.getrandbits`` themselves, with the formula of each ``Random``
method they stand for. Each test here checks one inlined form against
the stdlib call it replaces: the same values, and the same generator
state afterwards (``Random.getstate()``), so the next draw matches too.
A CPython whose ``random`` module draws differently fails here by name,
not only as an ``.atrace`` digest mismatch.
"""

import random
from bisect import bisect_right

import pytest

from repro.trace import synthesis
from repro.trace.record import InstrKind
from repro.trace.synthesis import (
    _SIZE_CUM,
    _SIZE_HI,
    _SIZE_TOTAL,
    _VARIABLE_SIZES,
    _VARIABLE_WEIGHTS,
    ProgramBuilder,
    SynthesisSpec,
    _below,
    _geometric,
)

SEEDS = (0, 1, 17, 2024, 1_000_020)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_below_is_randrange(seed):
    ours, stdlib = _pair(seed)
    for n in range(1, 71):
        drawn = [_below(ours.getrandbits, n) for _ in range(40)]
        assert drawn == [stdlib.randrange(n) for _ in range(40)], n
        assert ours.getstate() == stdlib.getstate(), n


@pytest.mark.parametrize("seed", SEEDS)
def test_below_is_randint(seed):
    ours, stdlib = _pair(seed)
    for a, b in ((1, 1), (1, 2), (1, 3), (0, 31), (5, 68)):
        drawn = [a + _below(ours.getrandbits, b - a + 1) for _ in range(50)]
        assert drawn == [stdlib.randint(a, b) for _ in range(50)]
        assert ours.getstate() == stdlib.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform(seed):
    ours, stdlib = _pair(seed)
    for a, b in ((0.94, 0.995), (0.82, 0.94), (0.35, 0.70), (0.2, 0.2)):
        drawn = [a + (b - a) * ours.random() for _ in range(50)]
        assert drawn == [stdlib.uniform(a, b) for _ in range(50)]
        assert ours.getstate() == stdlib.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_choices_over_the_variable_sizes(seed):
    ours, stdlib = _pair(seed)
    drawn = [_VARIABLE_SIZES[bisect_right(_SIZE_CUM, ours.random()
                                          * _SIZE_TOTAL, 0, _SIZE_HI)]
             for _ in range(2000)]
    assert drawn == [stdlib.choices(_VARIABLE_SIZES, _VARIABLE_WEIGHTS)[0]
                     for _ in range(2000)]
    assert ours.getstate() == stdlib.getstate()
    assert set(drawn) == set(_VARIABLE_SIZES)


@pytest.mark.parametrize("seed", SEEDS)
def test_geometric_is_its_expovariate_form(seed):
    ours, stdlib = _pair(seed)
    for mean, minimum in ((6.0, 2), (9.0, 2), (36.0, 8), (3.0, 1),
                          (8.0, 2), (2.5, 2)):
        drawn = [_geometric(ours.random, mean, minimum) for _ in range(200)]
        assert drawn == [
            minimum + int(stdlib.expovariate(1.0 / (mean - minimum)) + 0.5)
            for _ in range(200)], (mean, minimum)
        assert ours.getstate() == stdlib.getstate()
    # At or below its minimum the mean draws nothing.
    assert _geometric(ours.random, 2.0, minimum=2) == 2
    assert ours.getstate() == stdlib.getstate()


def test_walker_bit_widths():
    for n, bits in ((synthesis._REGS, synthesis._REG_BITS),
                    (synthesis._STACK_SLOTS, synthesis._STACK_BITS),
                    (synthesis._WORDS, synthesis._WORD_BITS)):
        assert bits == n.bit_length()
    assert (synthesis._REGS, synthesis._STACK_SLOTS,
            synthesis._WORDS) == (32, 16, 8)


def _stdlib_block_body(builder, n_instrs, terminator):
    """``ProgramBuilder._block_body`` as drawn through ``Random``'s
    methods (one ``choices`` call per variable size)."""
    rng = builder._rng
    variable = builder.spec.isa == "variable"

    def size():
        if not variable:
            return 4
        return rng.choices(_VARIABLE_SIZES, _VARIABLE_WEIGHTS)[0]

    def kind():
        return builder._mix_kinds[bisect_right(builder._mix_cumulative,
                                               rng.random())]

    n_body = n_instrs - (1 if terminator is not None else 0)
    sizes = [size() for _ in range(n_body)]
    kinds = [kind() for _ in range(n_body)]
    if terminator is not None:
        sizes.append(size())
        kinds.append(terminator)
    return sizes, kinds


def _stdlib_draw_bias(builder):
    rng, spec = builder._rng, builder.spec
    r = rng.random()
    if r < 0.68:
        bias = rng.uniform(0.94, 0.995)
    elif r < 0.93:
        bias = rng.uniform(0.82, 0.94)
    else:
        bias = rng.uniform(spec.cond_bias_low, spec.cond_bias_high)
    return bias if rng.random() < 0.5 else 1.0 - bias


@pytest.mark.parametrize("isa", ["fixed4", "variable"])
@pytest.mark.parametrize("seed", SEEDS)
def test_builder_draws_match_the_stdlib_calls(isa, seed):
    spec = SynthesisSpec(isa=isa, seed=seed)
    ours, stdlib = ProgramBuilder(spec), ProgramBuilder(spec)
    for n, term in ((1, None), (1, InstrKind.RET), (7, None),
                    (9, InstrKind.BR_COND), (40, InstrKind.CALL)):
        assert ours._block_body(n, term) == _stdlib_block_body(stdlib, n,
                                                               term)
        assert [ours._draw_bias() for _ in range(30)] == [
            _stdlib_draw_bias(stdlib) for _ in range(30)]
        assert ours._rng.getstate() == stdlib._rng.getstate()
