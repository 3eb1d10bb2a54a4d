"""Command-line front end: builds tables, runs the verifications and
analyses, and emits deterministic JSON or text reports.

Exit codes: 0 when every check passed, 1 on a mathematical failure (a
verification reported failing entries or an equality check came out false),
2 on usage or structural errors (bad grammar, missing support, a level above
CIRCDIST_MAX_PHI, unwritable output, no exponent found), 3 on an internal
failure (an ArithmeticError such as PrecisionError or SubfieldError: a
numeric stage could not be certified or an internal exact check failed).
Reports are written atomically and are byte-identical across runs of the
same configuration.
"""

import argparse
import json
import os
import sys
from contextlib import suppress
from math import lcm

from . import coleman, distributions, groupring, polys
from .distributions import (RTower, SupportError, delta_table,
                            divisor_closure, phi_table, power_by_tower,
                            table_conj, table_product, verify_relations,
                            verify_strictness)

SCHEMA = "circdist/1"
# phi(135) = 72 admits the README's ncnd example (levels 15, 45, 135)
DEFAULT_MAX_PHI = 72
# table specs nest pow/mul/conj at most this deep; the parser recurses once
# per level, so an unbounded spec would end in RecursionError
MAX_TABLE_DEPTH = 64
# and weigh at most this much: phi and delta weigh 1, pow(T, R) T's weight
# times the sum of R's |coefficients|, mul the sum of its two tables' and
# conj its table's; every part is weighed before any table is built
MAX_EXPONENT_WEIGHT = 4096


class TableSpecError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise TableSpecError("expected %r" % ch, self.pos)
        self.pos += 1

    def ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            raise TableSpecError("expected a name", start)
        return self.text[start:self.pos]

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise TableSpecError("expected an integer", start)
        return int(self.text[start:self.pos])

    def integers(self):
        """( INT , INT ... )"""
        self.expect("(")
        out = [self.integer()]
        while self.peek() == ",":
            self.expect(",")
            out.append(self.integer())
        self.expect(")")
        return out

    def done(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise TableSpecError("trailing input", self.pos)


def parse_support(text):
    sc = _Scanner(text)
    name = sc.ident()
    if name != "closure":
        raise TableSpecError("support spec must be closure(...)", 0)
    levels = sc.integers()
    sc.done()
    _check_phi_cap(levels)         # phi(d) <= phi(n) for every divisor d of n
    return divisor_closure(levels)


def _parse_tower(sc, support):
    sc.skip_ws()
    start = sc.pos
    if sc.peek().isalpha():
        save = sc.pos
        name = sc.ident()
        if name in RTower._PRESETS:
            return RTower.preset(name), 1 if name in ("one", "tau") else 2
        if name != "s":
            raise TableSpecError("unknown tower %r" % name, save)
        sc.pos = save
    # integer combination: TERM ((+|-) TERM)* [@ BASE]
    terms = []

    def term(sign):
        sc.skip_ws()
        c = 1
        if sc.peek() != "s":
            c = sc.integer()
            sc.skip_ws()
            if sc.peek() != "*":
                return (sign * c, 1)
            sc.expect("*")
        if sc.ident() != "s":
            raise TableSpecError("expected s(...)", sc.pos)
        sc.expect("(")
        a = sc.integer()
        sc.expect(")")
        return (sign * c, a)

    terms.append(term(1))
    while sc.peek() in "+-":
        sign = 1 if sc.peek() == "+" else -1
        sc.pos += 1
        terms.append(term(sign))
    if sc.peek() == "@":
        sc.expect("@")
        base = sc.integer()
        if base < 1:
            raise TableSpecError("tower base must be >= 1", sc.pos)
        # the combination is built at every lift level lcm(base, n)
        _check_phi_cap(lcm(base, n) for n in support)
        return RTower.combo(base, terms), sum(abs(c) for c, _ in terms)
    if any(a != 1 for _, a in terms):
        raise TableSpecError("sigma terms need a base level (@n)", start)
    return RTower.scalar(sum(c for c, _ in terms)), sum(abs(c) for c, _ in terms)


def _parse_table(sc, support, depth=0):
    """(weight, build): the spec's exponent weight (`MAX_EXPONENT_WEIGHT`)
    and a function that builds its table."""
    if depth > MAX_TABLE_DEPTH:
        raise TableSpecError("table spec nested deeper than %d" % MAX_TABLE_DEPTH, sc.pos)
    name = sc.ident()
    if name == "phi":
        weight, build = 1, lambda: phi_table(support)
    elif name == "delta":
        ps = sc.integers()
        try:
            table = delta_table(ps, support)
        except ValueError as exc:
            raise TableSpecError(str(exc), sc.pos)
        weight, build = 1, lambda: table
    elif name == "pow":
        sc.expect("(")
        weight, base = _parse_table(sc, support, depth + 1)
        sc.expect(",")
        tower, size = _parse_tower(sc, support)
        sc.expect(")")
        weight, build = weight * size, lambda: power_by_tower(base(), tower)
    elif name == "mul":
        sc.expect("(")
        wa, a = _parse_table(sc, support, depth + 1)
        sc.expect(",")
        wb, b = _parse_table(sc, support, depth + 1)
        sc.expect(")")
        weight, build = wa + wb, lambda: table_product(a(), b())
    elif name == "conj":
        sc.expect("(")
        weight, a = _parse_table(sc, support, depth + 1)
        sc.expect(")")
        build = lambda: table_conj(a())
    else:
        raise TableSpecError("unknown table %r" % name, sc.pos)
    if weight > MAX_EXPONENT_WEIGHT:
        raise TableSpecError("table spec has exponent weight %d, above %d"
                             % (weight, MAX_EXPONENT_WEIGHT), sc.pos)
    return weight, build


def parse_table(text, support):
    sc = _Scanner(text)
    _, build = _parse_table(sc, support)
    sc.done()
    return build()


def _check_phi_cap(levels):
    """Refuse any level whose phi exceeds CIRCDIST_MAX_PHI.  phi(n) >=
    sqrt(n / 2), so a level above 2 cap^2 is refused without factoring it;
    `levels` may be a generator, read only up to the first refused level."""
    cap = int(os.environ.get("CIRCDIST_MAX_PHI", DEFAULT_MAX_PHI))
    for n in levels:
        if n > 2 * cap * cap or polys.euler_phi(n) > cap:
            raise SupportError(
                "phi(%d) exceeds CIRCDIST_MAX_PHI = %d" % (n, cap))


def _emit(args, payload, exit_code):
    payload = {"schema": SCHEMA, **payload}
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        lines = ["[%s]" % payload.get("command", "report")]
        for key, val in sorted(payload.items()):
            if key in ("schema", "command"):
                continue
            lines.append("%s: %s" % (key, json.dumps(val, sort_keys=True)))
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            _write_atomic(args.out, text)
        except OSError as exc:
            print("cannot write report: %s" % exc, file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return exit_code


def _write_atomic(path, text):
    """Write text to a fresh file beside path (mode 0o666 less the umask, as
    open() gives) and rename it over path; a failed step removes the file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       ".circdist-%s" % os.urandom(4).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _table_args(sub):
    sub.add_argument("--table", required=True, help="table spec, e.g. pow(phi, one_plus_tau)")
    sub.add_argument("--support", required=True, help="support spec, e.g. closure(30,60)")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report to this path (atomic)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed into the report for reproducible sweeps")
    ap = argparse.ArgumentParser(
        prog="circdist",
        description="exact verification and analysis of distribution tables on roots of unity")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    _table_args(cmd("verify", "check the norm relations"))
    _table_args(cmd("strictness", "check the residue congruences"))

    ann = cmd("annihilator", "annihilator lattice of eps_n")
    ann.add_argument("--n", type=int, required=True)
    ann.add_argument("--oracle", action="store_true",
                     help="also run the log-embedding oracle and compare")

    idm = cmd("idempotent", "the idempotent cutting out eps_n")
    idm.add_argument("--n", type=int, required=True)

    kap = cmd("kappa", "exponent digit table along a p-power tower")
    bnd = cmd("boundedness", "digit boundedness evidence")
    for parser in (kap, bnd):
        _table_args(parser)
        for opt in ("--m", "--p", "--depth"):
            parser.add_argument(opt, type=int, required=True)
        parser.add_argument("--k", default=None, help="comma-separated digit indices")
    bnd.add_argument("--threshold", type=int, default=None)

    nc = cmd("ncnd", "norm-compatible family from lifted group sums")
    nc.add_argument("--p", type=int, required=True)
    nc.add_argument("--q", type=int, required=True)
    nc.add_argument("--a-max", type=int, default=3)

    eu = cmd("euler", "Euler-system conditions")
    _table_args(eu)
    eu.add_argument("--m", type=int, required=True)
    eu.add_argument("--r", type=int, required=True)

    _table_args(cmd("torsion", "classify a +-1-valued table"))
    _table_args(cmd("valuation", "valuation constancy at prime-power levels"))
    return ap


def _build_table(args):
    return parse_table(args.table, parse_support(args.support))


def run(args):
    meta = {"command": args.command, "seed": args.seed}
    # the commands whose payload is one Report on the table
    report = {"verify": verify_relations, "strictness": verify_strictness,
              "euler": lambda t: distributions.check_euler_conditions(t, args.m, args.r),
              "valuation": coleman.valuation_constancy}.get(args.command)
    if report is not None:
        rep = report(_build_table(args))
        return _emit(args, {**meta, **rep.to_json()}, 0 if rep.passed else 1)
    if args.command in ("annihilator", "idempotent"):
        _check_phi_cap([args.n])
    if args.command == "annihilator":
        lattice = groupring.annihilator_In_formula(args.n)
        payload = {**meta, "n": args.n, "formula": lattice.to_json()}
        code = 0
        if args.oracle:
            oracle = groupring.annihilator_In_oracle(args.n)
            payload["oracle"] = oracle.to_json()
            payload["equal"] = oracle == lattice
            code = 0 if payload["equal"] else 1
        return _emit(args, payload, code)
    if args.command == "idempotent":
        e = groupring.idempotent_e_n(args.n)
        return _emit(args, {**meta, "n": args.n,
                            "idempotent": groupring.gr_to_json(e)}, 0)
    if args.command in ("kappa", "boundedness"):
        table = _build_table(args)
        k_list = [int(v) for v in args.k.split(",")] if args.k else None
        kd = coleman.kappa_digits(table, args.m, args.p, args.depth, k_list)
        if args.command == "kappa":
            return _emit(args, {**meta, **kd.to_json()}, 0)
        verdict = coleman.boundedness_report(kd, threshold=args.threshold)
        ok = all(verdict.bounded(k) for k in kd.k_list)
        return _emit(args, {**meta, **verdict.to_json()}, 0 if ok else 1)
    if args.command == "ncnd":
        if min(args.p, args.q) >= 2:      # ncnd_family refuses the rest at once
            # the levels q p^a at least double with a, so few are factored
            _check_phi_cap(args.q * args.p ** a for a in range(1, args.a_max + 1))
        fam = coleman.ncnd_family(args.p, args.q, args.a_max)
        sec = coleman.section_independence_check(fam)
        ok = fam.report.passed and sec.passed
        return _emit(args, {**meta, "p": args.p, "q": args.q, "a_max": args.a_max,
                            "family": fam.report.to_json(),
                            "sections": sec.to_json()}, 0 if ok else 1)
    if args.command == "torsion":
        kind, pi = distributions.classify_torsion(_build_table(args))
        payload = {**meta, "classification": kind}
        if kind == "delta":
            payload["pi"] = list(pi)
            payload["trivial"] = not pi
        return _emit(args, payload, 0)
    raise AssertionError("unreachable")


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return run(args)
    except (KeyError, ValueError) as exc:
        print("error: %s" % (exc.args[0] if isinstance(exc, KeyError) else exc), file=sys.stderr)
        return 2
    except coleman.SolveError as exc:
        print("solve error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
