"""Spans around circdist's public functions, installed from outside.

``install()`` replaces each function listed in ``TARGETS`` by a wrapper, in
every circdist module namespace that binds it (found by identity, so
``from .cyclotomic import act`` in another module is wrapped too) and on
every class attribute that holds it (so ``CycElt.__rmul__``, an alias of
``__mul__``, is wrapped with it).  Nothing under ``src/`` changes.

A wrapper records a span only while an op is running: (name, start, end,
parent span, op id), kept in memory.  Self time is the span's duration minus
the time its child spans cover.
"""

import json
import sys
import time

# (module, attribute path) for every function the per-layer metrics cover.
TARGETS = (
    ("polys", "int_poly_mul"), ("polys", "cyclo_inverse"),
    ("polys", "cyclo_norm"), ("polys", "fp_divmod"),
    ("cyclotomic", "CycElt.__mul__"), ("cyclotomic", "act"),
    ("cyclotomic", "inverse"), ("cyclotomic", "norm_down"),
    ("cyclotomic", "lower_level"), ("cyclotomic", "raise_level"),
    ("cyclotomic", "is_totally_positive"),
    ("intlinalg", "hnf"), ("intlinalg", "left_kernel"),
    ("intlinalg", "right_kernel"), ("intlinalg", "saturate"),
    ("intlinalg", "coset_reduce"), ("intlinalg", "hnf_contains"),
    ("groupring", "GroupRingElt.__mul__"), ("groupring", "GroupRingElt.act_on"),
    ("groupring", "idempotent_e_n"), ("groupring", "annihilator_In_formula"),
    ("groupring", "annihilator_In_oracle"), ("groupring", "annihilator_mu"),
    ("groupring", "annihilator_Tn"), ("groupring", "project_annihilator"),
    ("distributions", "solve_exponent"),
    ("distributions", "verify_exponent_identity"),
    ("distributions", "power_by_tower"), ("distributions", "verify_relations"),
    ("distributions", "verify_strictness"),
    ("coleman", "p_integral_exponent"), ("coleman", "ncnd_family"),
    ("coleman", "valuation_constancy"),
    ("cli", "main"),
)

NAMES = tuple("%s.%s" % t for t in TARGETS)
BITS_OF = "polys.int_poly_mul"
ACCEPTS_OF = "distributions.verify_exponent_identity"


class Tracer:
    """Span store for one process.  ``op`` is the id of the running op, or
    None between ops (calls made then are not recorded)."""

    def __init__(self):
        self.op = None
        self.spans = []          # [name index, start, end, parent, op, self]
        self.stack = []          # [span index, time covered by children]
        self.max_bits = 0
        self.accepts = 0
        self.bindings = {}       # name -> number of bindings replaced

    def enter(self, idx):
        sid = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([idx, 0.0, 0.0, parent, self.op, 0.0])
        self.stack.append([sid, 0.0])
        self.spans[sid][1] = time.perf_counter()
        return sid

    def leave(self, sid):
        end = time.perf_counter()
        span = self.spans[sid]
        _, covered = self.stack.pop()
        dur = end - span[1]
        span[2] = end
        span[5] = dur - covered
        if self.stack:
            self.stack[-1][1] += dur

    def exclude(self, seconds):
        """Take time spent outside the program (a host-speed sample) out of
        the running span's self time."""
        if self.stack:
            self.stack[-1][1] += seconds

    def counters(self):
        """Raw per-function totals, summable across processes."""
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for idx, _, _, _, _, own in self.spans:
            calls[idx] += 1
            self_s[idx] += own
        return {"calls": calls, "self_s": self_s, "max_bits": self.max_bits,
                "accepts": self.accepts}

    def dump(self, fh):
        """Write the spans as JSON lines: name, start, end, parent, op, self."""
        for idx, start, end, parent, op, own in self.spans:
            fh.write(json.dumps([NAMES[idx], start, end, parent, op, own]) + "\n")


def _operand_bits(poly):
    return max((abs(c).bit_length() for c in poly), default=0)


def _wrap(tracer, idx, fn):
    name = NAMES[idx]

    if name == BITS_OF:
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            bits = max(_operand_bits(args[0]), _operand_bits(args[1]))
            if bits > tracer.max_bits:
                tracer.max_bits = bits
            sid = tracer.enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(sid)
    elif name == ACCEPTS_OF:
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer.enter(idx)
            try:
                ok = fn(*args, **kwargs)
            finally:
                tracer.leave(sid)
            if ok is True:
                tracer.accepts += 1
            return ok
    else:
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer.enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(sid)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    return wrapper


def _namespaces():
    """Every dict that can bind a circdist function: module globals and the
    attribute dicts of classes defined in circdist."""
    mods = [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "circdist" or k.startswith("circdist."))]
    spaces = []
    for mod in mods:
        spaces.append((mod, vars(mod)))
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__.startswith("circdist"):
                spaces.append((val, vars(val)))
    return spaces


def install(tracer):
    """Wrap every target in place; raise if one is missing or if any binding
    of an original survives."""
    import circdist.cli  # noqa: F401  (loads every circdist module)
    originals = []
    for mod_name, path in TARGETS:
        obj = sys.modules["circdist." + mod_name]
        for part in path.split("."):
            obj = getattr(obj, part)
        originals.append(obj)
    by_id = {id(fn): i for i, fn in enumerate(originals)}
    wrappers = [_wrap(tracer, i, fn) for i, fn in enumerate(originals)]
    seen = set()
    for owner, space in _namespaces():
        if id(space) in seen:
            continue
        seen.add(id(space))
        for attr, val in list(space.items()):
            i = by_id.get(id(val))
            if i is not None and val is originals[i]:
                setattr(owner, attr, wrappers[i])
                tracer.bindings[NAMES[i]] = tracer.bindings.get(NAMES[i], 0) + 1
    missing = [n for n in NAMES if not tracer.bindings.get(n)]
    if missing:
        raise RuntimeError("trace wrappers not installed for: %s" % ", ".join(missing))
    for owner, space in _namespaces():
        for attr, val in space.items():
            if id(val) in by_id and val is originals[by_id[id(val)]]:
                raise RuntimeError("unwrapped binding %s.%s" % (owner.__name__, attr))
    return tracer


def layer_metrics(counters, import_s):
    """The per-layer metrics from the counters of one or more processes:
    calls and self time per function, the largest int_poly_mul operand, the
    verifier's accept ratio and the time to import circdist.cli."""
    calls = [sum(c["calls"][i] for c in counters) for i in range(len(NAMES))]
    self_s = [sum(c["self_s"][i] for c in counters) for i in range(len(NAMES))]
    out = {}
    for i, name in enumerate(NAMES):
        out[name + ".calls"] = (calls[i], "count")
        out[name + ".self_s"] = (self_s[i], "s")
    out[BITS_OF + ".max_operand_bits"] = (max(c["max_bits"] for c in counters), "bits")
    checks = calls[NAMES.index(ACCEPTS_OF)]
    accepts = sum(c["accepts"] for c in counters)
    out[ACCEPTS_OF + ".accept_ratio"] = (accepts / checks if checks else 0.0, "1")
    out["cli.import_s"] = (import_s, "s")
    return out
