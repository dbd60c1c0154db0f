"""Command line front end.

Polynomials are given as the k-list `k1,...,km` (meaning
x^m = k1 x^(m-1) + ... + km) or as a monic polynomial string like
`x^2-x-1`.  Field elements use a polynomial grammar in beta with exact
rational coefficients; `b`, `beta` and the Greek letter are synonyms, and
negative powers are allowed (`1-1/b`, `3*b^-2`, `(1+2*b)/5`).  Matrices are
row-major with `/` between rows: `1,1,0/2,3,1/1,1,1`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from . import coding as coding_mod
from . import forms as forms_mod
from . import numeration, shift
from .errors import PisotCodingError, SearchBudgetExceeded
from .numberfield import format_element, make_field

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MATH = 2
EXIT_USAGE = 64
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout

SEED_ENV = "PISOTCODING_SEED"


@dataclass
class Config:
    precision: int = 128
    orbit_cap: int = 10 ** 6
    wf_depth: int = 30
    unimodular_height: int = 100
    period_cap: int = 40
    seed: int = 0
    output: str = "text"

    def validate(self):
        for name in ("precision", "orbit_cap", "wf_depth", "unimodular_height", "period_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.output not in ("text", "json"):
            raise ValueError("output must be text or json")


def _load_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


# -- input parsing ---------------------------------------------------------------


def parse_poly(text):
    text = text.strip()
    if re.fullmatch(r"[-+]?\d+(\s*,\s*[-+]?\d+)+", text):
        return tuple(int(t) for t in text.split(","))
    return _parse_poly_string(text)


def _parse_poly_string(text):
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise ValueError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", s)
    coeffs = {}
    for t in terms:
        mobj = re.fullmatch(r"([+-]?)(\d*)\*?(x(\^(\d+))?)?", t)
        if not mobj or (not mobj.group(2) and not mobj.group(3)):
            raise ValueError(f"cannot parse polynomial term {t!r}")
        sign = -1 if mobj.group(1) == "-" else 1
        coeff = int(mobj.group(2)) if mobj.group(2) else 1
        power = 0
        if mobj.group(3):
            power = int(mobj.group(5)) if mobj.group(5) else 1
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    degree = max(coeffs)
    if coeffs.get(degree) != 1:
        raise ValueError("polynomial must be monic")
    return tuple(-coeffs.get(degree - i, 0) for i in range(1, degree + 1))


def parse_matrix(text):
    rows = [r for r in text.strip().split("/") if r]
    return forms_mod.mat([[int(x) for x in r.split(",")] for r in rows])


def parse_vector(text):
    return tuple(int(x) for x in text.strip().split(","))


_TOKEN = re.compile(r"\s*(\d+|[()+\-*/^]|beta|β|b)")
_MAX_DIGITS = 4300  # CPython's default int() limit, kept here on interpreters without one
# bound on a power's estimated size in bits, |n| times the widest of its base's
# numerators and denominator, checked before squaring: for beta (1 bit) it
# passes only n with beta^n < 1 or with at most about the default orbit cap's
# 10^6 digits, while beta^(10^9) would square for minutes
_MAX_POWER_BITS = 1 << 20
_TABLE_ENTRIES = 4 * 10 ** 6  # states x alphabet the automaton report prints, counted first


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        mobj = _TOKEN.match(text, pos)
        if not mobj:
            raise ValueError(f"bad element syntax near {text[pos:]!r}")
        out.append(mobj.group(1))
        if len(out[-1]) > _MAX_DIGITS:  # a number or an exponent, rejected before int() reads it
            raise ValueError(f"integer longer than {_MAX_DIGITS} digits")
        pos = mobj.end()
    out.append(None)
    return out


def parse_element(field, text):
    """Exact element from a polynomial-in-beta expression."""
    tokens = _tokenize(text)
    idx = [0]

    def peek():
        return tokens[idx[0]]

    def take():
        t = tokens[idx[0]]
        idx[0] += 1
        return t

    def atom():
        t = take()
        if t == "(":
            v = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
        elif t in ("b", "beta", "β"):
            v = field.beta
        elif t is not None and t.isdigit():
            v = field.from_rational(int(t))
        else:
            raise ValueError(f"unexpected token {t!r}")
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            p = take()
            if p is None or not p.isdigit():
                raise ValueError("exponent must be an integer")
            n = int(p)
            if n * max(x.bit_length() for x in (*v.nums, v.den)) > _MAX_POWER_BITS:
                raise ValueError(f"power estimated past {_MAX_POWER_BITS} bits")
            v = v ** (sign * n)
        return v

    def factor():
        if peek() == "-":
            take()
            return -factor()
        if peek() == "+":
            take()
        return atom()

    def term():
        v = factor()
        while peek() in ("*", "/"):
            op = take()
            w = factor()
            v = v * w if op == "*" else v / w
        return v

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()
            w = term()
            v = v + w if op == "+" else v - w
        return v

    try:
        v = expr()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if peek() is not None:
        raise ValueError(f"trailing input {peek()!r}")
    return v


# -- output ----------------------------------------------------------------------


def _emit(cfg, command, result, text_lines):
    if cfg.output == "json":
        doc = {"command": command, "config": asdict(cfg), "result": result}
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _field_summary(field):
    return {
        "k": list(field.min_poly.k),
        # the float root, which can differ from the correctly rounded beta in the last bit
        "beta": field._float_roots[0].real,
        "degree": field.m,
        "unit": field.is_unit_field,
        "theta": str(field.theta),
        "discriminant_D": field.discriminant_D,
        "xi0": [str(c) for c in field.xi0.coords],
        "xi0_pretty": format_element(field.xi0),
    }


# -- commands ----------------------------------------------------------------------


def cmd_field(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision)
    info = _field_summary(field)
    lines = [
        f"g: x^{field.m} with k = {','.join(str(k) for k in field.min_poly.k)}",
        f"beta ~ {info['beta']:.12f}  (Pisot certified, theta <= {float(field.theta):.6f})",
        f"unit field: {field.is_unit_field}",
        f"D = N(g'(beta)) = {field.discriminant_D}",
        f"xi0 = {info['xi0_pretty']}",
    ]
    checks = []
    for utext in args.unit or []:
        u = parse_element(field, utext)
        ok = field.is_unit(u)
        checks.append({"element": utext, "is_unit": ok})
        lines.append(f"unit check {utext}: {ok}")
    info["unit_checks"] = checks
    _emit(cfg, "field", info, lines)


def cmd_expand(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision)
    x = parse_element(field, args.element)
    text = numeration.beta_expand(x, cfg.orbit_cap).serialize()
    _emit(cfg, "expand", {"element": args.element, "expansion": text}, [text])


def cmd_dseq(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision)
    ds = numeration.d_sequence(field, cfg.orbit_cap)
    _emit(
        cfg,
        "dseq",
        {"d_prime": ds.d_prime.serialize(), "d": ds.d.serialize(), "floor_beta": ds.floor_beta},
        [f"d' = {ds.d_prime.serialize()}", f"d  = {ds.d.serialize()}"],
    )


def cmd_zbeta(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision, require_unit=True)
    zb = numeration.enumerate_z_beta(field, cfg.orbit_cap, cfg.period_cap)
    rows = [
        {"coords": [str(c) for c in a.coords], "pretty": format_element(a), "expansion": e.serialize()}
        for a, e in zb
    ]
    lines = [f"{len(zb)} elements"] + [f"  {r['pretty']}  =  {r['expansion']}" for r in rows]
    _emit(cfg, "zbeta", {"count": len(zb), "elements": rows}, lines)


def cmd_wf_check(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision, require_unit=True)
    cert = numeration.check_weak_finitarity(field, cfg.wf_depth, cfg.orbit_cap, cfg.period_cap)
    fin = numeration.check_finitarity(field, cfg.orbit_cap, cfg.period_cap)
    result = {"finitarity": fin.status, "certificate": cert.to_jsonable()}
    lines = [f"finitarity: {fin.status}", f"weak finitarity: {cert.status}"]
    for r in cert.records:
        lines.append(
            f"  alpha {r.expansion.serialize()}  p={r.period}  f={''.join(map(str, r.f_word))}"
        )
    _emit(cfg, "wf-check", result, lines)


def cmd_automaton(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision)
    auto = shift.build_automaton(numeration.d_sequence(field, cfg.orbit_cap))
    if (entries := auto.n_states * auto.alphabet_size) > _TABLE_ENTRIES:
        raise SearchBudgetExceeded(f"{entries} table entries (states x alphabet) exceed the budget {_TABLE_ENTRIES}")
    chain = shift.max_entropy_chain(auto)
    result = {
        "states": auto.n_states,
        "alphabet": auto.alphabet_size,
        "transitions": [[t for t in row] for row in auto.transitions],
        "perron_value": chain.perron_value,
        "entropy_rate": chain.entropy_rate(),
        "stationary": list(chain.stationary),
    }
    lines = [f"states: {auto.n_states}, alphabet: {auto.alphabet_size}"]
    for s, row in enumerate(auto.transitions):
        lines.append(f"  {s}: " + "  ".join(f"{e}->{t}" for e, t in enumerate(row) if t is not None))
    lines.append(f"perron ~ {chain.perron_value:.12f}, entropy ~ {chain.entropy_rate():.12f}")
    _emit(cfg, "automaton", result, lines)


def cmd_sample(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision)
    chain = shift.max_entropy_chain(shift.build_automaton(numeration.d_sequence(field, cfg.orbit_cap)))
    word = shift.sample(chain, args.length, cfg.seed)
    _emit(
        cfg,
        "sample",
        {"length": args.length, "seed": cfg.seed, "word": list(word)},
        ["".join(str(e) for e in word) if all(e <= 9 for e in word) else ",".join(map(str, word))],
    )


def cmd_tails(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision, require_unit=True)
    rep = shift.tail_invariance_experiment(
        field, args.n_list, args.trials, cfg.seed, orbit_cap=cfg.orbit_cap, jobs=args.jobs
    )
    lines = [f"L = {rep.L} (L1 = {rep.L1}, ceil(L2) = {rep.L2_ceil})"]
    for n, alpha, frac, trials in rep.rows:
        lines.append(f"  n={n:4d} alpha={alpha:>10s} unchanged={frac:.4f} ({trials} trials)")
    _emit(cfg, "tails", rep.to_jsonable(), lines)


def cmd_coding(cfg, args):
    field = make_field(parse_poly(args.poly), cfg.precision, require_unit=True)
    if args.xi is not None:
        xi = parse_element(field, args.xi)
    elif args.n_coord is not None:
        xi = coding_mod.xi_from_integer_coordinate(field, parse_vector(args.n_coord))
    else:
        xi = field.xi0
    spec = coding_mod.HomoclinicSpec(field, xi)
    result = {
        "xi": [str(c) for c in xi.coords],
        "xi_pretty": format_element(xi),
        "fundamental": spec.is_fundamental,
        "predicted_preimage_count": coding_mod.predicted_preimage_count(spec),
        "kernel": [e.serialize() for e in coding_mod.kernel_sequences(field, cfg.orbit_cap, cfg.period_cap)],
    }
    lines = [
        f"xi = {result['xi_pretty']}",
        f"fundamental: {result['fundamental']}",
        f"predicted preimage count: {result['predicted_preimage_count']}",
        f"kernel sequences: {', '.join(result['kernel'])}",
    ]
    if args.simulate:
        rep = coding_mod.injectivity_experiment(
            spec,
            n_digits=args.n_digits,
            trials=args.trials,
            resolution=2.0 ** -args.resolution_bits,
            seed=cfg.seed,
            orbit_cap=cfg.orbit_cap,
            jobs=args.jobs,
        )
        result["experiment"] = rep.to_jsonable()
        lines.append(
            f"experiment: histogram {rep.collision_histogram}, mode {rep.mode_multiplicity}, "
            f"kernel hits {rep.verified_kernel_hits}, near misses {rep.near_misses}, "
            f"counterexamples {len(rep.counterexamples)}"
        )
    _emit(cfg, "coding", result, lines)


def cmd_form(cfg, args):
    M = parse_matrix(args.matrix)
    height = args.search if args.search is not None else cfg.unimodular_height
    field = make_field(forms_mod.char_poly_k(M), cfg.precision)  # certified once, shared below
    report = forms_mod.build_form_report(M, height, field=field)
    result = report.to_jsonable()
    lines = [f"k = {','.join(str(k) for k in report.k)}"]
    if report.expansion:
        terms = " + ".join(f"{c}*x{list(e)}" for e, c in report.expansion)
        lines.append(f"f(n) = {terms}")
    lines.append(f"solutions up to height {height}: {len(report.solutions)}")
    for n, v in report.solutions[:8]:
        lines.append(f"  f{tuple(n)} = {v}")
    if report.certificate:
        lines.append(f"certificate B for n = {list(report.certificate_n)}:")
        for row in report.certificate:
            lines.append("  " + " ".join(f"{x:4d}" for x in row))
    else:
        lines.append("certificate: absent at this height")
    if args.nn:
        seq = forms_mod.nn_sequence(field, args.nn)
        result["nn_sequence"] = seq
        lines.append(f"power factors 1..{args.nn}: {seq}")
    if args.classify:
        res = forms_mod.classify_power_conjugacy(M, args.classify, min(height, 30), field)
        result["classification"] = {
            "n": args.classify,
            "status": res.status,
            "nn": res.nn,
            "reason": res.reason,
        }
        lines.append(f"power {args.classify}: {res.status} ({res.reason})")
    _emit(cfg, "form", result, lines)


# -- driver ----------------------------------------------------------------------


def _int_in(lo, hi=None):
    """argparse type for an integer count in lo ... hi (no upper end when hi
    is None); a value outside is a usage error."""

    def parse(text):
        value = int(text)
        if value < lo or hi is not None and value > hi:
            span = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be an integer {span}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def _positive_list(text):
    return [_int_in(1)(t) for t in text.split(",")]


_positive_list.__name__ = "comma-separated int"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")  # "-1/3" is an element, not an option

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _build_parser():
    p = _Parser(prog="pisotcoding", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--orbit-cap", type=int, default=None)
    p.add_argument("--wf-depth", type=int, default=None)
    p.add_argument(
        "--height", dest="unimodular_height", metavar="HEIGHT", type=int, default=None,
        help="default unimodular search height",
    )
    p.add_argument("--period-cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="field summary with Pisot certificate")
    sp.add_argument("poly")
    sp.add_argument("--unit", action="append", help="element to verify as a unit (repeatable)")
    sp.set_defaults(func=cmd_field)

    sp = sub.add_parser("expand", help="beta-expansion of an element in [0,1)")
    sp.add_argument("poly")
    sp.add_argument("element")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("dseq", help="greedy and quasi-greedy expansions of 1")
    sp.add_argument("poly")
    sp.set_defaults(func=cmd_dseq)

    sp = sub.add_parser("zbeta", help="purely periodic ring elements in [0,1)")
    sp.add_argument("poly")
    sp.set_defaults(func=cmd_zbeta)

    sp = sub.add_parser("wf-check", help="finitarity and weak-finitarity certificate")
    sp.add_argument("poly")
    sp.set_defaults(func=cmd_wf_check)

    sp = sub.add_parser("automaton", help="admissibility automaton and Parry chain")
    sp.add_argument("poly")
    sp.set_defaults(func=cmd_automaton)

    sp = sub.add_parser("sample", help="sample an admissible word from the Parry chain")
    sp.add_argument("poly")
    sp.add_argument("-n", "--length", type=_int_in(0), required=True)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("tails", help="tail invariance experiment")
    sp.add_argument("poly")
    sp.add_argument("--n-list", type=_positive_list, default="20,40,60")
    sp.add_argument("--trials", type=_int_in(0), default=500)
    sp.add_argument("--jobs", type=_int_in(1), default=1, help="parallelism degree")
    sp.set_defaults(func=cmd_tails)

    sp = sub.add_parser("coding", help="homoclinic coding summary and experiment")
    sp.add_argument("poly")
    sp.add_argument("--xi", default=None, help="coding parameter (element expression)")
    sp.add_argument("--n-coord", default=None, help="integer coordinate vector for the parameter")
    sp.add_argument("--simulate", action="store_true")
    sp.add_argument("--trials", type=_int_in(0), default=500)
    sp.add_argument("--n-digits", type=_int_in(1), default=36)
    # a bucket index, coordinate * 2^bits, stays a finite float
    sp.add_argument("--resolution-bits", type=_int_in(1, 1023), default=20)
    sp.add_argument("--jobs", type=_int_in(1), default=1, help="parallelism degree")
    sp.set_defaults(func=cmd_coding)

    sp = sub.add_parser("form", help="associated form report for an integer matrix")
    sp.add_argument("matrix")
    sp.add_argument("--search", type=_int_in(0), default=None)
    sp.add_argument("--nn", type=_int_in(0), default=None, help="0 or absent: off")
    sp.add_argument("--classify", type=_int_in(0), default=None, help="0 or absent: off")
    sp.set_defaults(func=cmd_form)
    return p


def _make_config(args):
    file_values = _load_config_file(args.config) if args.config else {}
    cfg = Config()
    names = [f.name for f in fields(Config)]
    if unknown := [repr(key) for key in file_values if key not in names]:
        raise ValueError(f"unknown config key {', '.join(unknown)} (keys: {', '.join(names)})")
    for f in fields(Config):
        value = getattr(args, f.name, None)
        if value is None:
            value = file_values.get(f.name)
        if value is not None:
            setattr(cfg, f.name, type(f.default)(value))
    if os.environ.get(SEED_ENV):
        cfg.seed = int(os.environ[SEED_ENV])
    if args.json:
        cfg.output = "json"
    cfg.validate()
    return cfg


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.func(cfg, args)
        sys.stdout.flush()  # a closed stdout surfaces here, not at exit
        return EXIT_OK
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (PisotCodingError, ZeroDivisionError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
