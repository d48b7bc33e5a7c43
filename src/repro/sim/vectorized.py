"""Vectorized NumPy batch simulation backend.

The :class:`~repro.sim.engine.CompiledEngine` removed interpreter
overhead but still executes Python bytecode per vector, per step.  This
module lowers the same :class:`~repro.sim.engine.ExecutionPlan` into a
NumPy *array program*: every register / FU-input-latch / FU-output state
slot becomes an ``int64`` column of shape ``(batch,)``, guards become
boolean masks applied with ``np.where``, masked wrap-around arithmetic
and shift chains are emitted as array expressions, and every
:class:`~repro.sim.activity.ActivityCounter` tally is reduced with
vectorized popcount/XOR over consecutive rows — so one generated function
call simulates a whole vector block at once, bit-identically to the
compiled and interpreted backends.

Cross-vector state
------------------

Hardware state persists between consecutive vectors, which makes the
batch axis a recurrence, not an embarrassingly-parallel dimension.  The
code generator resolves it in closed form:

* A slot written **unconditionally** during a vector's pass carries no
  state into the next vector beyond its end-of-pass column; toggles
  between consecutive vectors are XORs of a column against its
  shift-by-one (``start = concat([carry], end[:-1])``).
* A slot whose writes are all **guarded** (power-managed ops that may be
  shut down) keeps its previous value when disabled.  Its end-of-pass
  column is the masked scan ``end[i] = mask[i] ? value[i] : end[i-1]``,
  computed without a Python loop via a ``maximum.accumulate`` index
  trick (:func:`_masked_ffill`) — the same way d-MC verification work
  batches candidate checks instead of walking them one by one.

Reads that observe a stale slot (a consumer latching the dest register
of a shut-down producer) read the shifted end column of that slot.  The
generator emits all columns as SSA statements and topologically sorts
them.  Two kinds of plan are refused with :class:`VectorizationError`:
widths beyond the int64 headroom, and guarded writes that form a genuine
cross-vector cycle with no closed form (the sort leaves statements
over).  :func:`repro.sim.backend.create_engine` runs both on the
compiled engine under ``backend="auto"``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.ir.ops import Op, ResourceClass
from repro.rtl.design import SynthesizedDesign
from repro.sim.activity import ActivityCounter
from repro.sim.engine import (
    ExecutionPlan,
    SourcePlan,
    _EngineBase,
    _lru_get,
    _lru_put,
    _make_lru,
    _state_names,
    cached_plan,
    design_fingerprint,
)


# Widest design the array backend accepts: intermediate products need
# 2*width bits inside int64 plus sign headroom.
VECTOR_WIDTH_LIMIT = 62


class VectorizationError(Exception):
    """The plan has no array program: its width is past the int64
    headroom, or its guarded state forms a cross-vector recurrence.  The
    compiled backend runs it instead."""


def _masked_ffill(values: np.ndarray, mask: np.ndarray, carry: int,
                  idx1: np.ndarray) -> np.ndarray:
    """Solve ``out[i] = mask[i] ? values[i] : out[i-1]`` with ``out[-1] =
    carry`` — the end-of-pass column of a slot whose writes are all
    guarded — as pure array code.  ``idx1`` is ``arange(1, n + 1)``."""
    idx = np.maximum.accumulate(np.where(mask, idx1, 0))
    gathered = values[np.maximum(idx, 1) - 1]
    return np.where(idx > 0, gathered, carry)


# -- code generation -------------------------------------------------------


def _contradictory(implied: frozenset) -> bool:
    """True when a term set requires a driver to be both 0 and 1 —
    i.e. the guarded observation can never happen at runtime."""
    required: dict = {}
    for sp, value in implied:
        if required.setdefault(sp, value) != value:
            return True
    return False


@dataclass(frozen=True)
class _Stmt:
    """One SSA statement: ``target = expr``, reading the ``deps``."""

    target: str
    expr: str
    deps: tuple[str, ...]


class _VectorCodegen:
    """Symbolically executes one vector pass over the plan, emitting SSA
    array statements, then resolves cross-vector state and orders the
    statements topologically."""

    def __init__(self, plan: ExecutionPlan, power_management: bool) -> None:
        self.plan = plan
        self.pm = power_management
        self.mask = (1 << plan.width) - 1
        self.sign = 1 << (plan.width - 1)
        if plan.width > VECTOR_WIDTH_LIMIT:
            raise VectorizationError(
                f"width {plan.width} exceeds the array backend's "
                "int64 headroom; use backend='compiled'")
        # Smallest element type with full product headroom (2w bits).
        # Wrap-around ops are congruent mod 2**dtype_bits ⊇ mod 2**width
        # and every column is rewrapped into signed range immediately, so
        # narrow dtypes stay bit-exact while halving memory traffic.
        self.dtype = "_np.int64"
        for bits, name in ((16, "_np.int16"), (32, "_np.int32")):
            if 2 * plan.width <= bits:
                self.dtype = name
                break
        # For power-of-two widths a signed downcast/upcast pair is the
        # cheapest exact rewrap (truncating two's complement cast).
        self.narrow = {8: "_np.int8", 16: "_np.int16",
                       32: "_np.int32"}.get(plan.width)
        self.stmts: list[_Stmt] = []
        # slot -> write history this pass: (guard name | None, guard term
        # set | None, written column).
        self.writes: dict[str, list[
            tuple[str | None, frozenset | None, str]]] = {}
        self.cur: dict[str, str] = {}       # slot -> current true column
        self.start_used: set[str] = set()   # slots read before first write
        self.contribs: dict[str, list[str]] = {}  # counter -> contrib names
        self._serial = 0
        self._cse: dict[str, str] = {}      # expr -> existing SSA name

    # -- column rendering ----------------------------------------------

    def where_expr(self, guard: str, then: str, other: str) -> str:
        return f"_np.where({guard}, {then}, {other})"

    def const_column(self, expr: str) -> str:
        return f"_np.full(_n, {expr}, dtype={self.dtype})"

    # -- statement plumbing ---------------------------------------------

    def name(self, stem: str) -> str:
        self._serial += 1
        return f"_{stem}{self._serial}"

    def stmt(self, target: str, expr: str, deps: tuple[str, ...]) -> str:
        self.stmts.append(_Stmt(target, expr, deps))
        return target

    def cse_stmt(self, stem: str, expr: str, deps: tuple[str, ...]) -> str:
        cached = self._cse.get(expr)
        if cached is not None:
            return cached
        name = self.stmt(self.name(stem), expr, deps)
        self._cse[expr] = name
        return name

    def contrib(self, counter: str, expr: str,
                deps: tuple[str, ...] = ()) -> None:
        name = self.stmt(self.name("k"), expr, deps)
        self.contribs.setdefault(counter, []).append(name)

    # -- slot state ------------------------------------------------------
    #
    # Two read modes keep the batch formulation acyclic:
    #
    # * ``read_slot`` (observation): the value a latch or toggle counter
    #   actually sees, including values left stale by shut-down
    #   producers.  Folds the true write chain; bottoms out at the
    #   shifted end-of-pass column ``S_<slot>``.
    # * ``value_read`` (value path): the operand value a *guarded* op
    #   reads, valid only at positions where its guard holds.  When the
    #   producer's guard terms are a subset of the consumer's implied
    #   terms, the producer provably ran, so the fold can anchor on the
    #   producer's fresh column instead of the stale ``S_`` column —
    #   which is what breaks read-modify-write recurrences through
    #   guarded mux networks.

    def read_slot(self, slot: str) -> str:
        current = self.cur.get(slot)
        if current is not None:
            return current
        self.start_used.add(slot)
        return f"S_{slot}"

    def write_slot(self, slot: str, value: str,
                   guard: str | None, terms: frozenset | None) -> None:
        self.writes.setdefault(slot, []).append((guard, terms, value))
        if guard is None:
            self.cur[slot] = value
        else:
            prev = self.read_slot(slot)
            self.cur[slot] = self.cse_stmt(
                "c", self.where_expr(guard, value, prev),
                (guard, value, prev))

    def value_read(self, sp: SourcePlan, implied: frozenset) -> str:
        """Column name for an operand read on the value path (see above);
        falls back to the stale-capable observation fold when no write's
        guard is implied."""
        slot = f"r{sp.register}"
        suffix: list[tuple[str, str]] = []
        base = None
        for guard, terms, value in reversed(self.writes.get(slot, [])):
            if guard is None or (terms is not None and terms <= implied):
                base = value
                break
            suffix.append((guard, value))
        if base is None:
            self.start_used.add(slot)
            base = f"S_{slot}"
        expr, deps = base, (base,)
        for guard, value in reversed(suffix):
            expr = self.where_expr(guard, value, expr)
            deps += (guard, value)
        return self.cse_stmt("w", self.shift_chain(expr, sp.shifts), deps)

    # -- expression rendering -------------------------------------------

    def wrap(self, expr: str) -> str:
        """Rewrap an intermediate into signed ``width``-bit range."""
        if self.narrow is not None:
            return f"({expr}).astype({self.narrow}).astype({self.dtype})"
        return f"((({expr}) & {self.mask}) ^ {self.sign}) - {self.sign}"

    def shift_chain(self, expr: str, shifts) -> str:
        for op, amount in shifts:
            if op is Op.SHL:
                if amount >= self.plan.width:  # shifted fully out: zero
                    expr = f"_np.zeros(_n, dtype={self.dtype})"
                else:
                    expr = self.wrap(f"({expr}) << {amount}")
            else:  # arithmetic shift right of an in-range value
                # Clamp: beyond width-1 bits the result saturates to the
                # sign (identical to Python's unbounded >>), and numpy
                # shifts past the element width are undefined.
                expr = f"(({expr}) >> {min(amount, self.plan.width - 1)})"
        return expr

    def render_source(self, sp: SourcePlan) -> tuple[str, tuple[str, ...]]:
        """(array expression, deps) for a pre-resolved operand source
        (register column plus shift chain); constants stay scalar."""
        if sp.const is not None:
            return repr(sp.const), ()
        name = self.read_slot(f"r{sp.register}")
        return self.shift_chain(name, sp.shifts), (name,)

    def op_expr(self, op: Op, ts: list[str]) -> str:
        wrap = self.wrap
        a = ts[0]
        b = ts[1] if len(ts) > 1 else None
        if op is Op.ADD:
            return wrap(f"{a} + {b}")
        if op is Op.SUB:
            return wrap(f"{a} - {b}")
        if op is Op.MUL:
            return wrap(f"{a} * {b}")
        if op is Op.GT:
            return f"({a} > {b}).astype({self.dtype})"
        if op is Op.LT:
            return f"({a} < {b}).astype({self.dtype})"
        if op is Op.GE:
            return f"({a} >= {b}).astype({self.dtype})"
        if op is Op.LE:
            return f"({a} <= {b}).astype({self.dtype})"
        if op is Op.EQ:
            return f"({a} == {b}).astype({self.dtype})"
        if op is Op.NE:
            return f"({a} != {b}).astype({self.dtype})"
        if op is Op.MUX:
            return f"_np.where({a} != 0, {ts[2]}, {ts[1]})"
        if op is Op.AND:
            return wrap(f"{a} & {b}")
        if op is Op.OR:
            return wrap(f"{a} | {b}")
        if op is Op.XOR:
            return wrap(f"{a} ^ {b}")
        if op is Op.NOT:
            return wrap(f"~{a}")
        raise ValueError(f"cannot vectorize {op!r}")  # pragma: no cover

    def popcount(self, prev: str, new: str, guard: str | None,
                 deps: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
        expr = f"_np.bitwise_count(({prev} ^ {new}) & {self.mask})"
        if guard is not None:
            # Multiplying by the mask is ~7x cheaper than boolean
            # fancy-indexing at 4k-element blocks.
            return f"int(({expr} * {guard}).sum())", deps + (guard,)
        return f"int({expr}.sum())", deps

    # -- pass symbolic execution ----------------------------------------

    def guard_mask(self, guard) -> tuple[str | None | bool, frozenset]:
        """(mask column name, live term set) for a guard; ``None`` =
        unconditional, ``False`` = provably never enabled (constant
        terms fold at compile time, like the scalar generator's
        short-circuit does at run time)."""
        if not self.pm or guard.unconditional:
            return None, frozenset()
        if guard.never:
            return False, frozenset()
        conds = []
        live = []
        deps: tuple[str, ...] = ()
        for sp, value in guard.terms:
            if sp.const is not None:
                if bool(sp.const) != bool(value):
                    return False, frozenset()  # contradiction: never
                continue  # term always true: fold away
            expr, d = self.render_source(sp)
            test = "!=" if value else "=="
            conds.append(f"(({expr}) {test} 0)")
            live.append((sp, 1 if value else 0))
            deps += d
        if not conds:
            return None, frozenset()
        return self.stmt(self.name("g"), " & ".join(conds),
                         deps), frozenset(live)

    def run(self) -> str:
        plan = self.plan

        # Clock edge into state 0: input registers load (unconditional).
        for k, (_name, reg) in enumerate(plan.inputs):
            if self.narrow is not None:
                load = f"_m[:, {k}].astype({self.narrow}).astype({self.dtype})"
            else:
                load = (f"(((_m[:, {k}] & {self.mask}) ^ {self.sign}) - "
                        f"{self.sign}).astype({self.dtype})")
            col = self.stmt(f"in{k}", load, ())
            slot = f"r{reg}"
            prev = self.read_slot(slot)
            self.contrib("_rt", *self.popcount(prev, col, None, (prev, col)))
            self.write_slot(slot, col, None, None)

        # Controller: one FSM cycle per control step, every sample.
        self.contrib("_cc", f"{plan.n_steps} * _n")
        self.contrib("_cl", f"{plan.n_steps * plan.controller_literals} * _n")

        guards: dict[int, str | None | bool] = {}
        gterms: dict[int, frozenset] = {}
        tvalues: dict[int, list[str]] = {}
        for step in plan.steps:
            for start in step.starts:
                g, terms = self.guard_mask(start.guard)
                guards[start.nid], gterms[start.nid] = g, terms
                cls = start.resource.name
                if g is False:
                    self.contrib(f"_id_{cls}", "_n")
                    continue
                if g is not None:
                    self.contrib(f"_id_{cls}", f"int((~{g}).sum())", (g,))
                is_mux = start.resource is ResourceClass.MUX
                select = start.sources[0] if is_mux else None
                tvs = []
                for port, sp in enumerate(start.sources):
                    expr, deps = self.render_source(sp)
                    if sp.const is not None:
                        expr = self.const_column(expr)
                    t = self.stmt(f"t{start.nid}_{port}", expr, deps)
                    # Value-path operand: a mux data port is additionally
                    # guarded by its own selection (the port's value only
                    # reaches the result when the select picks its side),
                    # so its producer is provably fresh there even for an
                    # unguarded mux.  A contradictory implied set (guard
                    # requires select==0 while the port needs select==1)
                    # means the port is never observed at all — any
                    # column is valid, so substitute zeros instead of
                    # chasing a stale read into a false recurrence.
                    implied = terms
                    if is_mux and port in (1, 2) and select.const is None:
                        implied = terms | {(select, port - 1)}
                    if sp.const is not None or \
                            (g is None and implied == terms):
                        tvs.append(t)
                    elif _contradictory(implied):
                        tvs.append(self.cse_stmt(
                            "z", f"_np.zeros(_n, dtype={self.dtype})", ()))
                    else:
                        tvs.append(self.value_read(sp, implied))
                    # Latches are observation-only leaves: their fold can
                    # (and must) carry the true, stale-capable column.
                    latch = f"l{start.unit}_{port}"
                    prev = self.read_slot(latch)
                    self.contrib(f"_ai_{cls}",
                                 *self.popcount(prev, t, g, (prev, t)))
                    self.write_slot(latch, t, g, terms)
                tvalues[start.nid] = tvs
            for end in step.ends:
                g = guards[end.nid]
                if g is False:
                    continue  # never-enabled op: no end event
                cls = end.resource.name
                terms = gterms[end.nid]
                # The result column folds over the value-path operands:
                # identical to folding over the latched columns wherever
                # the result is observed (the op's own guard positions,
                # and — for mux data ports — the selected side).
                x = self.stmt(f"x{end.nid}",
                              self.op_expr(end.op, tvalues[end.nid]),
                              tuple(tvalues[end.nid]))
                fo = f"fo{end.unit}"
                prev = self.read_slot(fo)
                self.contrib(f"_ao_{cls}", *self.popcount(prev, x, g,
                                                          (prev, x)))
                self.write_slot(fo, x, g, terms)
                self.contrib(f"_aa_{cls}",
                             "_n" if g is None else f"int({g}.sum())",
                             () if g is None else (g,))
                dest = f"r{end.dest_register}"
                prev = self.read_slot(dest)
                self.contrib("_rt", *self.popcount(prev, x, g, (prev, x)))
                self.write_slot(dest, x, g, terms)

        # Output columns, read at end of pass.
        out_names = []
        for k, (_name, sp) in enumerate(plan.outputs):
            expr, deps = self.render_source(sp)
            if sp.const is not None:
                expr = self.const_column(expr)
            out_names.append(self.stmt(f"o{k}", expr, deps))

        state_out = self._resolve_state()
        return self._assemble(out_names, state_out)

    # -- cross-vector state resolution ----------------------------------

    def _end_column(self, slot: str) -> str | None:
        """Name of the slot's end-of-pass column (None: never written)."""
        writes = self.writes.get(slot)
        if not writes:
            return None
        if any(guard is None for guard, _t, _v in writes):
            # An unconditional write anchors the pass: the final
            # where-chain is a pure column with no cross-vector term.
            return self.cur[slot]
        # All writes guarded: masked-scan recurrence over the batch
        # (each written column is valid at its own guard's positions —
        # all the masked scan ever reads).
        value = writes[0][2]
        for g, _terms, v in writes[1:]:
            value = self.stmt(self.name("v"),
                              self.where_expr(g, v, value), (g, v, value))
        guards = [g for g, _t, _v in writes]
        mask = self.stmt(self.name("m"), " | ".join(guards), tuple(guards))
        return self.stmt(f"E_{slot}",
                         f"_ffill({value}, {mask}, {slot}__in, _ar1)",
                         (value, mask, "_ar1"))

    def _resolve_state(self) -> list[str]:
        self.stmt("_ar1", "_np.arange(1, _n + 1)", ())
        state_out = []
        for slot in _state_names(self.plan):
            if slot.startswith(("_rt", "_cc", "_cl", "_ai", "_ao", "_aa",
                                "_id")):
                contribs = self.contribs.get(slot)
                if not contribs:
                    state_out.append(f"{slot}__in")
                    continue
                total = " + ".join([f"{slot}__in"] + contribs)
                state_out.append(self.stmt(f"{slot}__out", total,
                                           tuple(contribs)))
                continue
            end = self._end_column(slot)
            if end is None:
                state_out.append(f"{slot}__in")
            else:
                state_out.append(self.stmt(f"{slot}__out",
                                           f"int(({end})[-1])", (end,)))
            if slot in self.start_used:
                if end is None:
                    # Never written this pass: constant across the batch.
                    self.stmt(f"S_{slot}", self.const_column(f"{slot}__in"),
                              ())
                else:
                    # Shift-by-one start column: concat([carry], end[:-1]).
                    self.stmt(f"S_{slot}",
                              f"_np.concatenate((_np.asarray([{slot}__in], "
                              f"dtype={self.dtype}), ({end})[:-1]))",
                              (end,))
        return state_out

    # -- ordering + assembly --------------------------------------------

    def _kahn(self, kept: list[_Stmt],
              by_target: dict[str, int]) -> list[_Stmt]:
        """Kahn topological sort over ``kept``, stable on emission order.
        Returns fewer statements than given when the graph is cyclic."""
        indegree = {s.target: 0 for s in kept}
        dependants: dict[str, list[str]] = {s.target: [] for s in kept}
        for s in kept:
            for d in set(s.deps):
                if d in indegree:
                    indegree[s.target] += 1
                    dependants[d].append(s.target)
        ready = [by_target[t] for t, n in indegree.items() if n == 0]
        heapq.heapify(ready)
        ordered: list[_Stmt] = []
        while ready:
            s = self.stmts[heapq.heappop(ready)]
            ordered.append(s)
            for t in dependants[s.target]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    heapq.heappush(ready, by_target[t])
        return ordered

    def _assemble(self, out_names: list[str], state_out: list[str]) -> str:
        plan = self.plan
        by_target = {s.target: i for i, s in enumerate(self.stmts)}
        if len(by_target) != len(self.stmts):  # pragma: no cover - invariant
            raise VectorizationError(f"duplicate SSA target in {plan.name!r}")

        # Dead-code elimination: keep only statements reachable from the
        # outputs and the returned state tuple.
        roots = [n for n in out_names + state_out if n in by_target]
        live: set[str] = set()
        stack = list(roots)
        while stack:
            target = stack.pop()
            if target in live:
                continue
            live.add(target)
            stack.extend(d for d in self.stmts[by_target[target]].deps
                         if d in by_target and d not in live)

        kept = [s for s in self.stmts if s.target in live]
        ordered = self._kahn(kept, by_target)
        if len(ordered) != len(kept):
            raise VectorizationError(
                f"design {plan.name!r} has guarded state that forms a "
                f"cross-vector recurrence (slots "
                f"{', '.join(self._cycle_slots(kept, ordered))}); "
                "use backend='compiled'")

        names = _state_names(plan)
        lines = [f"def _run(_m, _state):  # vectorized from {plan.name!r}",
                 f"    ({', '.join(f'{n}__in' for n in names)},) = _state",
                 "    _n = _m.shape[0]"]
        lines += [f"    {s.target} = {s.expr}" for s in ordered]
        outs = ", ".join(out_names)
        if out_names:
            outs += ","
        lines.append(f"    return ({outs}), ({', '.join(state_out)},)")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _cycle_slots(kept: list[_Stmt], ordered: list[_Stmt]) -> list[str]:
        """State slots whose shifted start column ``S_<slot>`` lies on (or
        between) the dependency cycles the sort could not order.  Every
        cycle passes through one: they are the only forward references
        the symbolic pass emits."""
        done = {s.target for s in ordered}
        stuck = {s.target: s.deps for s in kept if s.target not in done}
        while True:  # peel statements that only consume the cycles
            used = {d for deps in stuck.values() for d in deps}
            tail = [t for t in stuck if t not in used]
            if not tail:
                break
            for t in tail:
                del stuck[t]
        return sorted(t[2:] for t in stuck if t.startswith("S_"))


def generate_vector_source(plan: ExecutionPlan,
                           power_management: bool) -> str:
    """NumPy source of the specialized ``_run(matrix, state)`` runner.

    Raises :class:`VectorizationError` for plans beyond the backend's
    int64 width headroom and for plans whose guarded state has no
    closed-form batch formulation.
    """
    return _VectorCodegen(plan, power_management).run()


# -- the engine ------------------------------------------------------------


@dataclass(frozen=True)
class ArrayBatchResult:
    """Column outputs and merged switching activity of one array batch."""

    outputs: dict[str, np.ndarray]
    activity: ActivityCounter
    samples: int


# (fingerprint, power_management) -> (plan, source, runner), or the
# refusal message of a plan with no array program — compile-once.
_VECTOR_CACHE = _make_lru()


class VectorizedEngine(_EngineBase):
    """Executes whole vector blocks as NumPy array programs.

    Drop-in for :class:`~repro.sim.engine.CompiledEngine`: same persistent
    state semantics (splitting a sequence into blocks is indistinguishable
    from one long run), same bit-exact outputs and
    :class:`~repro.sim.activity.ActivityCounter`.  Prefer
    :meth:`run_array` with a pre-generated ``(batch, n_inputs)`` matrix
    (see the ``array_*`` builders in :mod:`repro.sim.vectors` /
    :mod:`repro.sim.workloads`) — :meth:`run_batch` accepts vector dicts
    for API parity and converts.
    """

    backend = "vectorized"

    def __init__(self, design: SynthesizedDesign,
                 power_management: bool = True) -> None:
        self.design = design
        self.power_management = power_management
        key = (design_fingerprint(design), power_management)
        cached = _lru_get(_VECTOR_CACHE, key)
        if cached is None:
            plan = cached_plan(design)
            try:
                source = generate_vector_source(plan, power_management)
            except VectorizationError as exc:
                cached = str(exc)
            else:
                namespace: dict[str, object] = {"_np": np,
                                                "_ffill": _masked_ffill}
                exec(compile(source, f"<vectorized:{design.graph.name}>",
                             "exec"), namespace)
                cached = (plan, source, namespace["_run"])
            _lru_put(_VECTOR_CACHE, key, cached)
        if isinstance(cached, str):
            raise VectorizationError(cached)
        self.plan, self.source, self._run = cached
        self._init_state()

    def run_array(self, matrix: np.ndarray) -> ArrayBatchResult:
        """Run a ``(batch, n_inputs)`` int64 matrix (column order =
        ``plan.inputs`` order = ``self.input_names``)."""
        matrix = np.asarray(matrix)
        if not np.issubdtype(matrix.dtype, np.integer):
            # The compiled backend rejects non-integer vectors too; a
            # silent float truncation here would break backend parity.
            raise TypeError(
                f"input matrix must have an integer dtype, "
                f"got {matrix.dtype}")
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        n_inputs = len(self.plan.inputs)
        if matrix.ndim != 2 or matrix.shape[1] != n_inputs:
            raise ValueError(
                f"expected a (batch, {n_inputs}) input matrix, "
                f"got shape {matrix.shape}")
        if matrix.shape[0] == 0:
            return ArrayBatchResult(
                outputs={name: np.empty(0, dtype=np.int64)
                         for name, _sp in self.plan.outputs},
                activity=ActivityCounter(width=self.plan.width), samples=0)
        before = self._state
        n = matrix.shape[0]
        cols, after = self._run(matrix, before)
        self._state = after
        self.samples += n
        return ArrayBatchResult(
            outputs={name: col for (name, _sp), col
                     in zip(self.plan.outputs, cols)},
            activity=self._activity_delta(before, after),
            samples=n)

    def run_batch(self, vectors) -> "BatchResult":
        """Run vector dicts (any iterable); converts to one matrix."""
        from repro.sim.engine import BatchResult
        from repro.sim.vectors import vectors_to_array

        matrix = vectors_to_array(vectors, self.input_names)
        result = self.run_array(matrix)
        columns = [col.tolist() for col in result.outputs.values()]
        names = list(result.outputs)
        outputs = [dict(zip(names, row)) for row in zip(*columns)] \
            if columns else [{} for _ in range(result.samples)]
        return BatchResult(outputs=outputs, activity=result.activity)

    def run_many(self, vectors) -> tuple[list[dict[str, int]],
                                         ActivityCounter]:
        """Drop-in signature twin of :meth:`CompiledEngine.run_many`."""
        result = self.run_batch(vectors)
        return result.outputs, result.activity
