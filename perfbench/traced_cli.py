"""Run one eulerq command with the package's public functions traced.

    PYTHONPATH=src python3 perfbench/traced_cli.py OUT QID ARGV...

Before calling `eulerq.cli.main(ARGV)` this wraps every public module-level
function of the traced modules and the methods listed in METHODS, and
rebinds every module-level and class-level alias of each one, since the
package imports its functions by name (`from .eulerian import q_symf`).
Nothing inside the package changes.

Each wrapped call is a span: name, start, end, parent span and the query
id QID.  Spans stay in memory and are written to OUT.spans when the command
returns.  Per-name totals (calls, self time), inclusive time per group,
counters and lru_cache hit counts go to OUT.json.  A layer is a module, and
a layer's self time is the time of its spans less the time of their child
spans, so the layers' self times add up to the time spent in `main`.
Tracing assumes one thread, which holds for the command line at its
default --jobs.
"""

import array
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

T_LAUNCH = time.perf_counter()

LAYERS = ("permstats", "polyalg", "symfunc", "eulerian", "related", "cache",
          "report", "cli")

# Class methods traced besides the module-level functions.  Arithmetic is
# traced where it is a layer's work (polynomial and series products, symmetric
# function products); constructors and accessors are not, as they are too
# small and too frequent for a span each.
METHODS = {
    "polyalg": {
        "Poly": ("__add__", "__sub__", "__mul__", "__pow__", "substitute", "render"),
        "PolyFraction": ("__add__", "__sub__", "__mul__", "__truediv__", "inverse"),
        "TruncSeries": ("__add__", "__sub__", "__mul__", "inverse"),
        "QExpSeries": ("__add__", "__sub__", "__mul__"),
    },
    "symfunc": {
        "QSymF": ("__add__", "__sub__", "is_symmetric", "to_symf", "to_monomial",
                  "omega", "ps_stable", "ps_at"),
        "SymF": ("__add__", "__sub__", "__mul__", "__pow__", "__eq__", "to_basis",
                 "omega", "to_monomial", "render"),
        "SymPoly": ("__add__", "__sub__", "__mul__", "to_basis"),
        "MonExpansion": ("__add__", "__sub__", "__mul__", "__eq__", "is_symmetric",
                         "to_symf"),
    },
    "report": {
        "VerifyReport": ("record", "extend", "to_jsonable", "summary"),
    },
}

# Spans whose inclusive time is summed only at the outermost one of the group,
# so nested calls (a_poly calling stat_poly) are not counted twice.
GROUPS = {
    "eulerian.stat_poly": "oracle",
    "eulerian.a_poly": "oracle",
    "eulerian.a_poly_fix": "oracle",
    "eulerian.a_poly_type": "oracle",
    "eulerian.a_poly_derangements": "oracle",
    "symfunc.SymF.to_basis": "to_basis",
    "symfunc.SymPoly.to_basis": "to_basis",
    "symfunc.SymF.__mul__": "mul",
    "symfunc.SymPoly.__mul__": "mul",
}

ENUMERATORS = ("permstats.enumerate_permutations", "permstats.enumerate_by_cycle_type",
               "permstats.derangements")

Q_FUNCTIONS = ("q_qsym", "q_qsym_type", "q_symf", "q_symf_type", "q_poly", "q_type_poly")


class Tracer:
    def __init__(self, qid):
        self.qid = qid
        self.stack = []      # open spans: [span id, time covered by children]
        self.spans = []      # (span id, parent id, name index, start, end)
        self.names = []
        self.layer = []      # layer of each name index
        self.totals = []     # per name index: [calls, self_s]
        self.groups = {}     # group -> [open spans, inclusive seconds]
        self.ids = itertools.count(1)
        self.counters = {"perms": 0, "passes": 0, "enumerating": 0,
                         "cache_hits": 0, "to_basis_max_degree": 0}
        self.lru = {}        # cache name -> lru_cache callables, read at exit

    def _name(self, name, layer):
        self.names.append(name)
        self.layer.append(layer)
        self.totals.append([0, 0.0])
        self.groups.setdefault(GROUPS.get(name, name), [0, 0.0])
        return len(self.names) - 1

    def wrap(self, name, layer, fn, before=None, after=None):
        """fn traced as a span called name, counted against layer."""
        idx = self._name(name, layer)
        totals, group = self.totals[idx], self.groups[GROUPS.get(name, name)]
        stack, spans, ids, clock = self.stack, self.spans, self.ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            group[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                totals[0] += 1
                totals[1] += dur - frame[1]
                group[0] -= 1
                if not group[0]:
                    group[1] += dur
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, idx, start, end))
            return result if after is None else after(result)

        return traced

    def wrap_enumerator(self, name, fn):
        """A generator function traced one resume at a time.  Only the
        outermost enumerator counts passes and permutations, so derangements
        filtering enumerate_permutations counts once."""
        resume = self.wrap(name, "permstats", next)
        counters = self.counters

        def generate(gen, outermost):
            if outermost:
                counters["passes"] += 1
            while True:
                counters["enumerating"] += 1
                try:
                    item = resume(gen)
                except StopIteration:
                    return
                finally:
                    counters["enumerating"] -= 1
                if outermost:
                    counters["perms"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return generate(fn(*args, **kwargs), counters["enumerating"] == 0)

        return traced

    def record(self, out_path, argv, import_s, main_s, exit_code):
        keys = {name: {"layer": self.layer[i], "calls": self.totals[i][0],
                       "self_s": self.totals[i][1]}
                for i, name in enumerate(self.names)}
        summary = {
            "qid": self.qid,
            "argv": argv,
            "exit_code": exit_code,
            "import_s": import_s,
            "main_s": main_s,
            "in_process_s": time.perf_counter() - T_LAUNCH,
            "keys": keys,
            "groups": {g: v[1] for g, v in self.groups.items()},
            "counters": {k: v for k, v in self.counters.items() if k != "enumerating"},
            "lru": {cache: [sum(f.cache_info().hits for f in fns),
                            sum(f.cache_info().misses for f in fns)]
                    for cache, fns in self.lru.items()},
        }
        with open(out_path + ".json", "w") as fh:
            json.dump(summary, fh, sort_keys=True)
        write_spans(out_path + ".spans", self.qid, self.names, self.spans)


def write_spans(path, qid, names, spans):
    """Spans as columns: int64 id, parent and name index, then float64 start
    and end, each as raw native-order bytes after a one-line JSON header."""
    columns = list(zip(*spans)) or [(), (), (), (), ()]
    header = {"qid": qid, "names": names, "count": len(spans),
              "columns": [["id", "q"], ["parent", "q"], ["name", "q"],
                          ["start", "d"], ["end", "d"]]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for (_, code), values in zip(header["columns"], columns):
            array.array(code, values).tofile(fh)


def read_spans(path):
    """(header, list of (id, parent, name, start, end)) from write_spans."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for _, code in header["columns"]:
            col = array.array(code)
            col.fromfile(fh, header["count"])
            columns.append(col)
    return header, list(zip(*columns))


def _lru_callables(module):
    """Every lru_cache-wrapped callable in a module, found by scanning its
    globals and class attributes for cache_info, so the metric survives a
    cache being added or removed."""
    found = []
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            found.extend(v for v in vars(value).values() if hasattr(v, "cache_info"))
        elif hasattr(value, "cache_info"):
            found.append(value)
    return found


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or inspect.isclass(value) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr, value


def install(tracer, modules):
    """Wrap and rebind; returns the traced main."""
    replace = {}   # id(original) -> (original, wrapper); holding the original keeps its id unique

    def selected_entries_after(entries):
        return [(name, tracer.wrap(f"verify.{name}", thunk.__module__.split(".")[-1], thunk))
                for name, thunk in entries]

    def fetch_before(args, kwargs):
        args = list(args)
        if "compute" in kwargs:
            kwargs["compute"] = tracer.wrap("cli.compute", "cli", kwargs["compute"])
        else:
            args[5] = tracer.wrap("cli.compute", "cli", args[5])
        return tuple(args), kwargs

    def fetch_after(result):
        tracer.counters["cache_hits"] += bool(result[1])
        return result

    def to_basis_before(args, kwargs):
        c = tracer.counters
        c["to_basis_max_degree"] = max(c["to_basis_max_degree"], max(args[0].degrees(), default=0))
        return args, kwargs

    hooks = {
        "cli.selected_entries": {"after": selected_entries_after},
        "cache.fetch": {"before": fetch_before, "after": fetch_after},
        "symfunc.SymF.to_basis": {"before": to_basis_before},
    }

    tracer.lru["symfunc"] = _lru_callables(modules["symfunc"])
    tracer.lru["eulerian.q"] = [getattr(modules["eulerian"], n) for n in Q_FUNCTIONS
                                if hasattr(getattr(modules["eulerian"], n, None), "cache_info")]
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if name in ENUMERATORS:
                replace[id(fn)] = fn, tracer.wrap_enumerator(name, fn)
            else:
                replace[id(fn)] = fn, tracer.wrap(name, layer, fn, **hooks.get(name, {}))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                name = f"{layer}.{cls_name}.{meth}"
                replace[id(fn)] = fn, tracer.wrap(name, layer, fn, **hooks.get(name, {}))

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("eulerq"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replace:
                setattr(module, attr, replace[id(value)][1])
            elif inspect.isclass(value) and value.__module__.startswith("eulerq"):
                for cattr, cvalue in list(vars(value).items()):
                    if id(cvalue) in replace:
                        setattr(value, cattr, replace[id(cvalue)][1])
    return modules["cli"].main


def main():
    out_path, qid, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    modules = {name: importlib.import_module(f"eulerq.{name}") for name in LAYERS}
    import_s = time.perf_counter() - T_LAUNCH
    tracer = Tracer(qid)
    traced_main = install(tracer, modules)
    start = time.perf_counter()
    try:
        code = traced_main(argv)
    except SystemExit as exc:
        code = exc.code
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    tracer.record(out_path, argv, import_s, main_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
