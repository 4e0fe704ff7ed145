"""Tracing of sexticrank's layers from outside the package.

``Tracer.install`` wraps the functions listed in ``LAYERS`` where their
callers look them up: a module-level function is rebound in every
sexticrank module that holds it (``from .x import f`` makes one binding
per caller), a method is replaced on its class under every name that
refers to it (``__rmul__ = __mul__``).  ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.

Every wrapped call counts towards its layer.  Timed wrappers keep a call
stack, so a layer's self time is its duration minus the time covered by
wrapped children.  Layers not marked ``hot`` also record a span (id,
name, start, end, parent span id, op id); hot layers, called up to
millions of times, keep only their counters so that memory stays small.
"""

import contextlib
import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "sexticrank"


def _nontrivial(g) -> bool:
    return g.degree > 0


def _not_none(r) -> bool:
    return r is not None


def _is_zero(v) -> bool:
    return v == 0


CALLS_SELF = ("calls", "self_s")
CALLS_TOTAL = ("calls", "total_s")
SPLIT = ("build_calls", "build_total_s", "verify_calls", "verify_total_s")

#: (module, attribute, stats, options).  ``hot``: no spans; ``count``:
#: counted only, its time stays in the caller; ``outcome``: the ratio
#: stat is the share of calls whose result satisfies it; ``split``: stats
#: are kept per op kind (certify build vs verify); ``generator``: timed
#: per row pulled from it.
LAYERS = (
    ("exactnum", "is_kth_power", CALLS_SELF + ("hit_ratio",),
     {"hot": True, "outcome": _not_none}),
    ("exactnum", "is_square_or_neg3_square", CALLS_SELF, {"hot": True}),
    ("exactnum", "factorint", CALLS_SELF + ("failed",), {}),
    ("exactnum", "sixth_power_class", CALLS_SELF, {}),
    ("exactnum", "QuadExt.__mul__", ("calls",), {"count": True}),
    ("funcfield", "poly_gcd", CALLS_SELF + ("nontrivial_ratio",),
     {"hot": True, "outcome": _nontrivial}),
    ("funcfield", "RatFunc.__init__", CALLS_SELF, {"hot": True}),
    ("funcfield", "Poly.__mul__", CALLS_SELF, {"hot": True}),
    ("funcfield", "Poly.__divmod__", CALLS_SELF, {"hot": True}),
    ("funcfield", "RatFunc.substitute", CALLS_SELF, {}),
    ("funcfield", "parse_point", CALLS_SELF, {}),
    ("curve", "FunctionFieldCurve.add", CALLS_SELF, {}),
    ("curve", "FunctionFieldCurve.contains", CALLS_SELF, {}),
    ("curve", "FunctionFieldCurve.point_substitute", CALLS_SELF, {}),
    ("curve", "FunctionFieldCurve.specialize", ("calls",), {}),
    ("curve", "FunctionFieldCurve.fiber_report", ("self_s",), {}),
    ("generators", "subfamily_generator", CALLS_TOTAL, {}),
    ("generators", "galois_descent_combine", CALLS_TOTAL, {}),
    ("generators", "full_certificate", CALLS_TOTAL, {}),
    ("generators", "certificate_to_json", CALLS_TOTAL, {}),
    ("generators", "base_change_embed", SPLIT, {"split": True}),
    ("generators", "eigenspace_check", SPLIT, {"split": True}),
    ("generators", "multiples_nonzero", SPLIT, {"split": True}),
    ("generators", "verify_certificate_json", SPLIT, {"split": True}),
    ("rankalg", "census_rows", ("total_s", "first_row_s", "rows", "wait_s"),
     {"generator": True}),
    ("rankalg", "rank_breakdown", CALLS_SELF, {}),
    ("rankalg", "breakdown_to_json", CALLS_SELF, {}),
    ("rankalg", "classify", CALLS_SELF, {}),
    ("oracle", "search_points", CALLS_TOTAL, {}),
    ("oracle", "sigma_equations", ("self_s",), {}),
    ("oracle", "heights_ordered", ("self_s",), {}),
    ("oracle", "Equation.evaluate", CALLS_SELF + ("zero_ratio",),
     {"hot": True, "outcome": _is_zero}),
    ("oracle", "Equation.coeffs_in", CALLS_SELF, {"hot": True}),
    ("cli", "main", CALLS_SELF, {}),
)

OVERHEAD_METRIC = "trace.overhead_ratio"

_HIGHER = ("hit_ratio", "nontrivial_ratio", "zero_ratio", "rows")


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for module, attr, stats, _ in LAYERS:
        for stat in stats:
            better = "higher" if stat in _HIGHER else "lower"
            out.append((f"{module}.{attr}.{stat}", _unit(stat), better))
    out.append((OVERHEAD_METRIC, "ratio", "lower"))
    return out


class Stat:
    __slots__ = ("calls", "total", "self_time", "hits", "errors", "depth",
                 "first", "rows")

    def __init__(self):
        self.calls = self.hits = self.errors = self.depth = self.rows = 0
        self.total = self.self_time = self.first = 0.0


class Tracer:
    """Counters, self times and spans of the wrapped layers, in memory."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.op_id = 0
        self.ctx = ""
        self._stack = []
        self._span_parent = None
        self._next_span = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _stat(self, key: str) -> Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def _enter(self, st: Stat, span: bool):
        st.depth += 1
        frame = [0.0, None, None]
        if span:
            frame[1] = self._span_parent
            frame[2] = self._span_parent = self._next_span
            self._next_span += 1
        self._stack.append(frame)
        return frame

    def _exit(self, st: Stat, frame, name: str, start: float, end: float):
        stack = self._stack
        stack.pop()
        st.depth -= 1
        dur = end - start
        st.self_time += dur - frame[0]
        if not st.depth:
            st.total += dur
        if stack:
            stack[-1][0] += dur
        if frame[2] is not None:
            self._span_parent = frame[1]
            self.spans.append((frame[2], name, start, end, frame[1],
                               self.op_id))

    def timed(self, name, fn, hot=False, outcome=None, split=False):
        span = not hot
        tracer = self
        fixed = None if split else self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = fixed or tracer._stat(f"{name}.{tracer.ctx}")
            st.calls += 1
            frame = tracer._enter(st, span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                tracer._exit(st, frame, name, start, perf_counter())
            if outcome is not None and outcome(result):
                st.hits += 1
            return result

        return wrapper

    def counted(self, name, fn):
        st = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name, fn):
        """Time each row pulled from a generator function's result, without
        a span per row; ``first`` is the time until the second row (the
        first after the census header), ``rows`` the number of rows."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stat(name)
            st.calls += 1
            return tracer._pull(st, name, fn(*args, **kwargs))

        return wrapper

    def _pull(self, st: Stat, name: str, rows):
        it = iter(rows)
        while True:
            frame = self._enter(st, False)
            start = perf_counter()
            try:
                row = next(it)
            except StopIteration:
                return
            finally:
                self._exit(st, frame, name, start, perf_counter())
            st.rows += 1
            if st.rows == 2:
                st.first = st.total
            yield row

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span of one op; layers split by op kind record under it."""
        self.op_id += 1
        self.ctx = kind
        name = f"op.{kind}"
        st = self._stat(name)
        st.calls += 1
        frame = self._enter(st, True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(st, frame, name, start, perf_counter())
            self.ctx = ""

    def add_wait(self, name: str, seconds: float):
        self._stat(name).total += seconds

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace ``original`` under every name a sexticrank module or
        class holds it by."""
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for module, attr, _, opts in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{module}.{attr}"
            owner = getattr(mod, owner_name) if owner_name else None
            original = (vars(owner)[fn_name] if owner is not None
                        else getattr(mod, fn_name))
            if opts.get("count"):
                wrapper = self.counted(name, original)
            elif opts.get("generator"):
                wrapper = self.generator(name, original)
            else:
                wrapper = self.timed(name, original, hot=opts.get("hot", False),
                                     outcome=opts.get("outcome"),
                                     split=opts.get("split", False))
            if owner is None:
                self._rebind(original, wrapper)
            else:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapper)

    def install_pool_wait(self, name="rankalg.census_rows.wait"):
        """Time how long the census parent blocks on its worker pool."""
        rankalg = importlib.import_module(f"{PACKAGE}.rankalg")
        self._set(rankalg, "multiprocessing",
                  _PoolWaitShim(self, name, rankalg.multiprocessing))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values (all zero for layers never called)."""
        out = {}
        for module, attr, stats, _ in LAYERS:
            name = f"{module}.{attr}"
            for stat in stats:
                out[f"{name}.{stat}"] = self._value(name, stat)
        return out

    def _value(self, name: str, stat: str):
        if stat.startswith(("build_", "verify_")):
            ctx, _, stat = stat.partition("_")
            name = f"{name}.{ctx}"
        st = self.stats.get(name) or Stat()
        if stat == "calls":
            return st.calls
        if stat == "self_s":
            return st.self_time
        if stat == "total_s":
            return st.total
        if stat.endswith("_ratio"):
            return st.hits / st.calls if st.calls else 0.0
        if stat == "failed":
            return st.errors
        if stat == "first_row_s":
            return st.first
        if stat == "rows":
            return st.rows
        if stat == "wait_s":
            return self.stats.get(f"{name}.wait", Stat()).total
        raise ValueError(f"unknown stat {stat}")


class _PoolWaitShim:
    """Stands in for the ``multiprocessing`` module inside rankalg."""

    def __init__(self, tracer, name, real):
        self._tracer, self._name, self._real = tracer, name, real

    def Pool(self, *args, **kwargs):
        return _WaitTimedPool(self._tracer, self._name,
                              self._real.Pool(*args, **kwargs))

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class _WaitTimedPool:
    def __init__(self, tracer, name, pool):
        self._tracer, self._name, self._pool = tracer, name, pool

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def imap(self, *args, **kwargs):
        it = self._pool.imap(*args, **kwargs)
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._tracer.add_wait(self._name, perf_counter() - start)
            yield item

    def __getattr__(self, attr):
        return getattr(self._pool, attr)
