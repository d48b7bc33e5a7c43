"""Vectorized lowering: runtime kernel and per-operator unit tests.

The differential suites compare whole benchmark designs across backends;
this file pins the pieces the vectorized code generator is assembled
from, one at a time:

* :func:`_masked_ffill`, the closed-form masked scan behind every guarded
  slot's end-of-pass column, against sequential carry propagation;
* every operator's array lowering (wrap-around arithmetic, signed
  comparisons, bitwise logic, mux) on a one-operator design, at the
  ``astype`` narrow width 8, the masked width 12 and the int64 limit
  ``VECTOR_WIDTH_LIMIT``, with operands at the range edges and inputs
  outside the range that must wrap on load;
* shift chains, including shifts as wide as the datapath or wider
  (shift-left clears the column, arithmetic shift-right saturates to the
  sign).

Each design gates its operator behind a mux, so power management on and
off exercise both the guarded (masked-scan) and unconditional lowering.
Outputs must match the functional reference and the full activity
counter must match the compiled engine.
"""

import itertools

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.ops import Op
from repro.pipeline import FlowConfig, run_pair
from repro.sched.timing import critical_path_length
from repro.sim.engine import CompiledEngine
from repro.sim.reference import evaluate
from repro.sim.vectorized import (
    VECTOR_WIDTH_LIMIT,
    VectorizedEngine,
    _masked_ffill,
)
from repro.sim.vectors import random_vectors


def sequential_ffill(values, mask, carry):
    """``out[i] = mask[i] ? values[i] : out[i-1]``, one row at a time."""
    out, cur = [], carry
    for value, taken in zip(values, mask):
        if taken:
            cur = int(value)
        out.append(cur)
    return out


def run_ffill(values, mask, carry):
    idx1 = np.arange(1, len(values) + 1)
    return _masked_ffill(values, mask, carry, idx1).tolist()


class TestMaskedForwardFill:
    @pytest.mark.parametrize("n,carry", [(1, 0), (1, -5), (2, 9),
                                         (64, 7), (65, -1), (100, 0),
                                         (130, 3)])
    def test_matches_sequential_scan(self, n, carry):
        rng = np.random.default_rng(n * 1000 + carry)
        values = rng.integers(-128, 128, size=n, dtype=np.int64)
        mask = rng.random(n) < 0.4
        assert run_ffill(values, mask, carry) == \
            sequential_ffill(values, mask, carry)

    def test_no_row_taken_keeps_the_carry(self):
        values = np.arange(10, dtype=np.int64)
        mask = np.zeros(10, dtype=bool)
        assert run_ffill(values, mask, -7) == [-7] * 10

    def test_every_row_taken_is_the_values(self):
        values = np.arange(-5, 5, dtype=np.int64)
        mask = np.ones(10, dtype=bool)
        assert run_ffill(values, mask, 99) == values.tolist()


#: Widths covering both wrap renderings: 8 narrows through ``astype``,
#: 12 and the int64 limit wrap with mask-and-sign arithmetic.
WIDTHS = (8, 12, VECTOR_WIDTH_LIMIT)

#: Two-operand operators and how to build them.
BINARY = {
    Op.ADD: GraphBuilder.add,
    Op.SUB: GraphBuilder.sub,
    Op.MUL: GraphBuilder.mul,
    Op.GT: GraphBuilder.gt,
    Op.LT: GraphBuilder.lt,
    Op.GE: GraphBuilder.ge,
    Op.LE: GraphBuilder.le,
    Op.EQ: GraphBuilder.eq,
    Op.NE: GraphBuilder.ne,
    Op.AND: GraphBuilder.and_,
    Op.OR: GraphBuilder.or_,
    Op.XOR: GraphBuilder.xor,
}


def gated_design(name, make):
    """``y = s > 0 ? make(b, a, c) : 0`` — the operator sits alone in its
    mux's shut-down cone, so power management guards it."""
    b = GraphBuilder(name)
    a, x, c, s = (b.input(n) for n in ("a", "b", "c", "s"))
    b.output(b.select(b.gt(s, 0), make(b, a, x, c), 0), "y")
    return b.build()


def edge_vectors(graph, width, n_random=40):
    """Operand pairs at the signed range edges (and one step outside it,
    which must wrap on load), each with the gate both open and shut,
    plus seeded random draws across the full width."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    edges = (lo - 1, lo, lo + 1, -1, 0, 1, hi - 1, hi, hi + 1)
    vectors = [{"a": a, "b": x, "c": a ^ x, "s": s}
               for (a, x), s in itertools.product(
                   itertools.product(edges, repeat=2), (1, 0))]
    return vectors + random_vectors(graph, n_random, width=width,
                                    seed=width)


def assert_lowering_exact(graph, width):
    cp = critical_path_length(graph)
    pair = run_pair(graph, FlowConfig(n_steps=cp + 1, width=width))
    vectors = edge_vectors(graph, width)
    expected = [evaluate(graph, v, width=width) for v in vectors]
    for result in (pair.managed, pair.baseline):
        for pm in (True, False):
            engine = VectorizedEngine(result.design, power_management=pm)
            outputs, activity = engine.run_many(vectors)
            assert outputs == expected
            compiled = CompiledEngine(result.design, power_management=pm)
            assert activity == compiled.run_many(vectors)[1]


class TestOperatorLowering:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("op", list(BINARY), ids=lambda op: op.name)
    def test_binary(self, op, width):
        make = BINARY[op]
        graph = gated_design(f"op_{op.name.lower()}",
                             lambda b, a, x, c: make(b, a, x))
        assert_lowering_exact(graph, width)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_not(self, width):
        graph = gated_design("op_not", lambda b, a, x, c: b.not_(a))
        assert_lowering_exact(graph, width)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_mux(self, width):
        graph = gated_design(
            "op_mux", lambda b, a, x, c: b.mux(b.lt(a, x), c, a))
        assert_lowering_exact(graph, width)


#: (width, amount): in range, the top bit, the full width and past it —
#: at the int64 limit, amounts past the element width too.
SHIFTS = [(8, 0), (8, 1), (8, 7), (8, 8), (8, 20),
          (VECTOR_WIDTH_LIMIT, 61), (VECTOR_WIDTH_LIMIT, 62),
          (VECTOR_WIDTH_LIMIT, 70)]


class TestShiftChains:
    @pytest.mark.parametrize("width,amount", SHIFTS)
    def test_shift_left(self, width, amount):
        graph = gated_design(
            "shl", lambda b, a, x, c: b.add(b.shl(a, amount), x))
        assert_lowering_exact(graph, width)

    @pytest.mark.parametrize("width,amount", SHIFTS)
    def test_arithmetic_shift_right(self, width, amount):
        graph = gated_design(
            "shr", lambda b, a, x, c: b.add(b.shr(a, amount), x))
        assert_lowering_exact(graph, width)

    def test_chained_shifts(self):
        graph = gated_design(
            "shl_shr",
            lambda b, a, x, c: b.sub(b.shr(b.shl(a, 3), 2), x))
        assert_lowering_exact(graph, 12)
