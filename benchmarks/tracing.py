"""Per-layer tracing for the traced benchmark run.

`install` replaces each layer's public functions, and `Matrix.__init__`,
`__matmul__` and `__eq__`, with wrappers that record a span (name, start,
end, parent) whenever the tracer is active.  Every `ybekit` module
namespace that binds a wrapped function gets the wrapper, so calls between
layers are traced too.  Spans stay in memory until the run ends.

Work counters are computed by hooks from each call's inputs and outputs, so
they repeat exactly for the same inputs.  A hook runs in a span of its own
named `trace.hook`; it is subtracted from the self time of the layer that
called it and from every inclusive timing.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from math import factorial

LAYERS = ("blockmat", "setsolutions", "repmat", "enumeration", "cli")

# Called once per table entry, pair or row inside the functions above; a
# span would cost more than their body, so their time stays in the span of
# the function that called them.
INNER_HELPERS = frozenset({"apply_r", "pair_to_index", "index_to_pair",
                           "is_bijection_table", "invert_table", "identity_table"})

MATRIX_METHODS = ("__init__", "__matmul__", "__eq__")

HOOK = "trace.hook"

# Spans are timed in process CPU time, like the items (see run.py).
CLOCK_NS = time.process_time_ns

# Inclusive-time metrics: the time inside the outermost span of any of the
# named functions, hooks excluded.
TIMED_GROUPS = {
    "blockmat.product_s": {"blockmat.kronecker", "blockmat.tracy_singh",
                           "blockmat.khatri_rao", "blockmat.hadamard"},
    "blockmat.eq_s": {"blockmat.Matrix.__eq__"},
    "blockmat.matmul_s": {"blockmat.Matrix.__matmul__"},
    "blockmat.inverse_s": {"blockmat.inverse"},
    "blockmat.csv_s": {"blockmat.format_matrix_csv", "blockmat.parse_matrix_csv",
                       "blockmat.parse_partitioned_csv"},
    "setsolutions.direct_product_s": {"setsolutions.direct_product"},
    "setsolutions.json_s": {"setsolutions.solution_to_json",
                            "setsolutions.solution_from_json"},
    "repmat.repmat_s": {"repmat.representing_matrix"},
    "repmat.verify_s": {"repmat.verify_theorem_a"},
    "repmat.ybe_matrix_s": {"repmat.ybe_check_matrix"},
    "repmat.ybe_scalar_s": {"repmat.ybe_check_scalar"},
    "repmat.qybe_s": {"repmat.qybe_check"},
    "enumeration.iso_classes_s": {"enumeration.iso_classes"},
}

COUNTERS = (
    "blockmat.matrix_cells", "blockmat.nonzeros", "blockmat.product_out_cells",
    "blockmat.eq_cells", "blockmat.matmul_terms", "blockmat.csv_bytes",
    "setsolutions.axiom_checks", "setsolutions.braid_triples",
    "setsolutions.iso_calls", "setsolutions.iso_relabelings",
    "repmat.entries_compared",
    "enumeration.candidates", "enumeration.solutions", "enumeration.classes",
    "cli.calls", "cli.nonzero_exits", "cli.bytes_written",
)


class Tracer:
    """Span store and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list = []          # (name, start_ns, end_ns, parent index)
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.active = False

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = CLOCK_NS()
        self.stack.pop()
        self.spans[idx] = (name, start, end, self.stack[-1] if self.stack else -1)

    def _hook(self, hook, args, kwargs, result) -> None:
        idx = self._open()
        start = CLOCK_NS()
        self.active = False
        try:
            hook(self.counters, args, kwargs, result)
        finally:
            self.active = True
            self._close(idx, HOOK, start)

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._hook(before, args, kwargs, None)
            idx = tracer._open()
            start = CLOCK_NS()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start)
            if after is not None:
                tracer._hook(after, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, modules: dict) -> int:
    """Wrap every layer's public functions in all of `modules` (name ->
    module, every loaded `ybekit` module) and the traced `Matrix` methods;
    returns how many functions were wrapped."""
    wrapped = 0
    for layer in LAYERS:
        mod = modules[f"ybekit.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or attr in INNER_HELPERS
                    or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            replacement = tracer.wrap(name, fn, *HOOKS.get(name, (None, None)))
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, replacement)
            wrapped += 1
    matrix = modules["ybekit.blockmat"].Matrix
    for meth in MATRIX_METHODS:
        name = f"blockmat.Matrix.{meth}"
        setattr(matrix, meth,
                tracer.wrap(name, vars(matrix)[meth], *HOOKS.get(name, (None, None))))
        wrapped += 1
    return wrapped


# --- hooks: counters from inputs and outputs, public surface only ----------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _as_matrix(value):
    return value.matrix if hasattr(value, "partition") else value


def _matrix_built(c, args, kwargs, result):
    m = args[0]
    c["blockmat.matrix_cells"] += m.rows * m.cols
    c["blockmat.nonzeros"] += sum(sum(map(bool, row)) for row in m.to_rows())


def _matmul_terms(c, args, kwargs, result):
    a, b = args
    if not hasattr(b, "to_rows") or a.cols != b.rows:
        return
    col_nnz = [0] * a.cols
    for row in a.to_rows():
        for k, v in enumerate(row):
            if v:
                col_nnz[k] += 1
    c["blockmat.matmul_terms"] += sum(
        n * sum(map(bool, row)) for n, row in zip(col_nnz, b.to_rows()))


def _eq_cells(c, args, kwargs, result):
    a, b = args
    if hasattr(b, "to_rows") and (a.rows, a.cols) == (b.rows, b.cols):
        c["blockmat.eq_cells"] += a.rows * a.cols


def _product_cells(c, args, kwargs, result):
    m = _as_matrix(result)
    c["blockmat.product_out_cells"] += m.rows * m.cols


def _csv_written(c, args, kwargs, result):
    c["blockmat.csv_bytes"] += len(result.encode())


def _csv_read(c, args, kwargs, result):
    c["blockmat.csv_bytes"] += len(_arg(args, kwargs, 0, "text").encode())


def _axiom_check(c, args, kwargs, result):
    c["setsolutions.axiom_checks"] += 1


def _braid_check(c, args, kwargs, result):
    c["setsolutions.axiom_checks"] += 1
    c["setsolutions.braid_triples"] += _arg(args, kwargs, 0, "s").n ** 3


def lex_rank(image) -> int:
    """0-based rank of a permutation of 1..n in lexicographic order."""
    rank = 0
    rest = sorted(image)
    for pos, v in enumerate(image):
        k = rest.index(v)
        rank += k * factorial(len(image) - pos - 1)
        rest.pop(k)
    return rank


def _iso_search(c, args, kwargs, result):
    c["setsolutions.iso_calls"] += 1
    n = _arg(args, kwargs, 0, "sa").n
    c["setsolutions.iso_relabelings"] += (
        factorial(n) if result is None else lex_rank(result.image) + 1)


def _verify(c, args, kwargs, result):
    n = _arg(args, kwargs, 0, "sx").n
    m = _arg(args, kwargs, 1, "sy").n
    c["repmat.entries_compared"] += (n * m) ** 4


def _enumerate_input(c, args, kwargs, result):
    n = _arg(args, kwargs, 0, "cfg").n
    # the size of the sigma-assignment space the enumerator walks
    c["enumeration.candidates"] += factorial(n) ** n


def _enumerate_output(c, args, kwargs, result):
    c["enumeration.solutions"] += len(result)


def _classes(c, args, kwargs, result):
    c["enumeration.classes"] += len(result)


def _cli_exit(c, args, kwargs, result):
    c["cli.calls"] += 1
    c["cli.nonzero_exits"] += result != 0


HOOKS = {
    "blockmat.Matrix.__init__": (None, _matrix_built),
    "blockmat.Matrix.__matmul__": (_matmul_terms, None),
    "blockmat.Matrix.__eq__": (None, _eq_cells),
    "blockmat.kronecker": (None, _product_cells),
    "blockmat.tracy_singh": (None, _product_cells),
    "blockmat.khatri_rao": (None, _product_cells),
    "blockmat.hadamard": (None, _product_cells),
    "blockmat.format_matrix_csv": (None, _csv_written),
    "blockmat.parse_matrix_csv": (_csv_read, None),
    "setsolutions.is_nondegenerate": (_axiom_check, None),
    "setsolutions.is_involutive": (_axiom_check, None),
    "setsolutions.is_braided": (_braid_check, None),
    "setsolutions.is_square_free": (_axiom_check, None),
    "setsolutions.is_trivial": (_axiom_check, None),
    "setsolutions.isomorphic_set": (None, _iso_search),
    "repmat.verify_theorem_a": (_verify, None),
    "enumeration.enumerate_solutions": (_enumerate_input, _enumerate_output),
    "enumeration.iso_classes": (None, _classes),
    "cli.main": (None, _cli_exit),
}


# --- per-layer metrics from the spans ---------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per layer, inclusive time per TIMED_GROUPS entry and the
    counters, in seconds and counts."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    hook_ns = [0] * len(spans)     # hook time inside each span's subtree
    for idx in range(len(spans) - 1, -1, -1):   # children follow parents
        name, start, end, parent = spans[idx]
        if parent >= 0:
            child_ns[parent] += end - start
            hook_ns[parent] += hook_ns[idx] + (end - start if name == HOOK else 0)
    self_ns = Counter()
    for idx, (name, start, end, _) in enumerate(spans):
        if name != HOOK:
            self_ns[name.split(".", 1)[0]] += end - start - child_ns[idx]
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    for metric, names in TIMED_GROUPS.items():
        inside = [False] * len(spans)
        total = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            enclosed = parent >= 0 and (inside[parent] or spans[parent][0] in names)
            inside[idx] = enclosed
            if name in names and not enclosed:
                total += end - start - hook_ns[idx]
        out[metric] = total / 1e9
    c = tracer.counters
    out.update({name: c[name] for name in COUNTERS})
    cells = c["blockmat.matrix_cells"]
    out["blockmat.nnz_fraction"] = c["blockmat.nonzeros"] / cells if cells else 0.0
    cands = c["enumeration.candidates"]
    out["enumeration.yield"] = c["enumeration.solutions"] / cands if cands else 0.0
    return out
