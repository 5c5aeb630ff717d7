"""Command line front end.

Every subcommand prints a single JSON document on stdout (inputs echoed,
results, tolerances) and a short human summary on stderr unless
--json-only is given.  Exit codes: 0 success, 1 computation error (with a
machine-readable error object on stdout), 2 usage error.

Inputs can be given inline or as @path to read a file.  Values that start
with a minus sign need the --flag=value form (--poly="-1,-1,1").  A
subcommand that takes --tol and is run without it uses the environment
variable LEHMERLAB_TOL, or the default tolerance when that is unset.  A
value that is not a positive finite number falls back to the default, with
one note on stderr; it is read, and noted, only when it would be used.
"""

import argparse
import functools
import math
import os
import sys

from ._blockword import BudgetError
from .braid import (
    BraidWord,
    alexander_from_det,
    det_burau_minus_identity,
    dynnikov_entropy,
    format_braid,
    gap_from_det,
    parse_braid,
    reduced_burau,
)
from .dynamics import (
    char_poly,
    cyclotomic_padding,
    lefschetz_seq,
    net_traces,
    parse_matrix,
    perron_check,
    primitivity,
)
from .freegroup import (
    DEFAULT_BUDGET,
    Word,
    abelianization,
    endo_from_matrix,
    format_endo,
    format_word,
    generator_lengths,
    growth_report_sum,
    iterate_lengths,
    nielsen_verify_basis,
    parse_endo,
    parse_word,
    positive_f2_aut,
)
from .freegroup import growth_report as endo_growth_report
from .polynomial import (
    DEFAULT_TOL,
    IntPoly,
    LaurentPoly,
    PrecisionError,
    format_poly,
    irreducibility_certificate,
    is_cyclotomic_product,
    is_reciprocal,
    mahler_measure,
    parse_poly,
    power_substitution_order,
)
from .sequence import (
    DEFAULT_WINDOW,
    GrowthReport,
    NoRecurrenceFound,
    Recurrence,
    fit_min_poly,
    growth_report,
    hankel_det,
    hankel_values,
    parse_seq,
)


# ---------------------------------------------------------------------------
# Input and output plumbing


def _read_arg(value: str) -> str:
    """Inline value, or the contents of a file when given as @path."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return value


def _tol_arg(text: str) -> float:
    """argparse type for --tol: a positive finite float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return tol


def _budget_arg(text: str) -> int:
    """argparse type for --budget: a nonnegative integer."""
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return budget


def _env_tol() -> float:
    """LEHMERLAB_TOL when it is a positive finite float, else the default;
    a value that is set but rejected gets one note on stderr."""
    text = os.environ.get("LEHMERLAB_TOL")
    if text is None:
        return DEFAULT_TOL
    try:
        return _tol_arg(text)
    except argparse.ArgumentTypeError:
        print(
            f"lehmerlab: LEHMERLAB_TOL={text!r} is not a positive finite number; "
            f"using the default tol {DEFAULT_TOL:g}",
            file=sys.stderr,
        )
        return DEFAULT_TOL


try:  # json.encoder's ASCII escaper, without importing json
    from _json import encode_basestring_ascii as _encode_str
except ImportError:
    from json.encoder import encode_basestring_ascii as _encode_str


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte, in one pass.

    CPython's C encoder is skipped whenever indent is set, so json writes an
    indented document through nested generators; this writer appends the
    same pieces to one list.  Strings go through json's own ASCII escaper,
    ints and floats through int.__repr__ and float.__repr__ (NaN and
    Infinity spelled as json spells them), and a value json cannot write
    raises json's TypeError.  Keys must be str: json would coerce others.
    """
    out = []
    _write_json(doc, out, "\n")
    return "".join(out)


def _float_text(x: float) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The text of a scalar, by its exact type.  A subclass of str, int or float
# is written as its base is (json tests isinstance); bool has no subclasses.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write_json(o, out: list, nl: str) -> None:
    """Append the text of o to out; nl is the newline and indent o sits at."""
    text = _SCALAR_TEXT.get(type(o))
    if text is not None:
        out.append(text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        texts = []
        for v in o:
            text = _SCALAR_TEXT.get(type(v))
            if text is None:
                break
            texts.append(text(v))
        else:  # all scalars: one join
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            text = _SCALAR_TEXT.get(type(o[key]))
            if text is not None:  # a scalar value, written without a call
                out.append(sep + _encode_str(key) + ": " + text(o[key]))
            else:
                out.append(sep + _encode_str(key) + ": ")
                _write_json(o[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        base = next((t for t in (str, int, float) if isinstance(o, t)), None)
        if base is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        out.append(_SCALAR_TEXT[base](o))


def _num(x):
    """JSON-safe exact numbers: integral Fractions as int, others as string.
    A Fraction exists only once fractions is imported, so an integer path
    does not import it to test for one."""
    if type(x) is int:
        return x
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _poly_obj(f: IntPoly) -> dict:
    return {"coeffs": list(f.coeffs), "display": format_poly(f)}


def _laurent_obj(f: LaurentPoly) -> dict:
    return {"coeffs": list(f.coeffs), "min_deg": f.min_deg, "display": str(f)}


def _rec_obj(rec: Recurrence) -> dict:
    return {
        "char": [_num(c) for c in rec.char],
        "char_display": format_poly(rec.char_int()) if rec.char_is_integral() else None,
        "degree": rec.degree,
        "init": [_num(c) for c in rec.init],
        "start_index": 1,
    }


def _growth_obj(rep: GrowthReport) -> dict:
    return {
        "entries": [
            {
                "k": e.k,
                "estimate": e.estimate,
                "spread": e.spread,
                "exact": e.exact,
                "window": e.window,
            }
            for e in rep.entries
        ],
        "min_poly": None if rep.min_poly is None else _rec_obj(rep.min_poly),
        "max_exact": rep.max_exact(),
    }


def _braid_arg(args) -> BraidWord:
    return parse_braid(_read_arg(args.braid), args.n)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (inputs, result, summary lines) and
# main() writes the {"command", "inputs", "result"} envelope.


def _cmd_mahler(args) -> tuple:
    f = parse_poly(_read_arg(args.poly))
    r = mahler_measure(f, tol=args.tol)
    inputs = {"poly": _poly_obj(f), "tol": args.tol}
    result = {"mahler": r.value, "lower": r.lower, "upper": r.upper, "exact": r.exact}
    return inputs, result, [f"M({inputs['poly']['display']}) = {r.value:.12f}"]


def _cmd_poly_check(args) -> tuple:
    f = parse_poly(_read_arg(args.poly))
    cert = irreducibility_certificate(f)
    result = {
        "degree": f.degree,
        "monic": f.is_monic,
        "reciprocal": is_reciprocal(f),
        "cyclotomic_product": f.is_monic and is_cyclotomic_product(f),
        "power_substitution_order": power_substitution_order(f),
        "irreducibility": {
            "status": cert.status,
            "witness_prime": cert.witness_prime,
            "factor": None if cert.factor is None else _poly_obj(cert.factor),
        },
    }
    summary = [
        f"degree {f.degree}, reciprocal: {result['reciprocal']}, "
        f"cyclotomic product: {result['cyclotomic_product']}",
        f"power substitution order: {result['power_substitution_order']}, "
        f"irreducibility: {cert.status}",
    ]
    return {"poly": _poly_obj(f)}, result, summary


def _cmd_hankel(args) -> tuple:
    a = parse_seq(_read_arg(args.seq))
    inputs = {"seq": [_num(v) for v in a.terms], "k": args.k, "n": args.n}
    if args.n is not None:
        value = hankel_det(a, args.n, args.k)
        result = {"value": _num(value)}
        summary = [f"H_{{{args.n},{args.k}}} = {value}"]
    else:
        pairs = hankel_values(a, args.k)
        result = {"first_n": 1, "values": [_num(v) for _, v in pairs]}
        summary = [f"H_{{n,{args.k}}} for n = 1..{len(pairs)}"]
    return inputs, result, summary


def _cmd_growth(args) -> tuple:
    a = parse_seq(_read_arg(args.seq))
    rep = growth_report(
        a, args.k_max, window=args.window, d_max=args.d_max, tol=args.tol
    )
    inputs = {
        "seq": [_num(v) for v in a.terms],
        "k_max": args.k_max,
        "window": args.window,
        "d_max": args.d_max,
        "tol": args.tol,
    }
    summary = []
    for e in rep.entries:
        est = "n/a" if e.estimate is None else f"{e.estimate:.6f}"
        exa = "n/a" if e.exact is None else f"{e.exact:.6f}"
        summary.append(f"GR^({e.k}): estimate {est}, exact {exa}")
    return inputs, _growth_obj(rep), summary


def _cmd_fit_recurrence(args) -> tuple:
    a = parse_seq(_read_arg(args.seq))
    d_max = args.d_max if args.d_max is not None else max(1, a.n_terms // 3)
    rec = fit_min_poly(a, d_max)
    inputs = {"seq": [_num(v) for v in a.terms], "d_max": d_max}
    obj = _rec_obj(rec)
    disp = obj["char_display"] or ", ".join(map(str, obj["char"]))
    return inputs, obj, [f"minimal polynomial: {disp}"]


def _cmd_lefschetz(args) -> tuple:
    a = parse_matrix(_read_arg(args.matrix))
    char = char_poly(a)
    seq = lefschetz_seq(char, args.boundary, args.iters)
    m = mahler_measure(char, tol=args.tol)
    inputs = {
        "matrix": [list(row) for row in a.rows],
        "has_boundary": args.boundary,
        "n_terms": args.iters,
        "tol": args.tol,
    }
    result = {
        "lefschetz": list(seq.ints),
        "char": _poly_obj(char),
        "mahler_char": m.value,
    }
    summary = [
        f"L_n for n = 1..{args.iters}; char poly {format_poly(char)}, "
        f"M = {m.value:.6f}"
    ]
    return inputs, result, summary


def _cmd_net_trace(args) -> tuple:
    f = parse_poly(_read_arg(args.poly))
    nets = net_traces(f, args.iters)
    first_bad = next((i + 1 for i, v in enumerate(nets) if v < 0), None)
    inputs = {"poly": _poly_obj(f), "n_terms": args.iters}
    result = {"net_traces": nets, "first_negative_n": first_bad}
    tail = "all nonnegative" if first_bad is None else f"first negative at n = {first_bad}"
    return inputs, result, [f"net traces for n = 1..{args.iters}: {tail}"]


def _cmd_perron(args) -> tuple:
    f = parse_poly(_read_arg(args.poly))
    chk = perron_check(f, n_net=args.n_net, tol=args.tol)
    inputs = {"poly": _poly_obj(f), "n_net": args.n_net, "tol": args.tol}
    result = {
        "integer_coeffs": chk.integer_coeffs,
        "dominant_real": chk.dominant_real,
        "net_traces_ok_up_to_n": chk.net_traces_ok_up_to_n,
        "net_traces_checked": chk.net_traces_checked,
        "first_negative_net": chk.first_negative_net,
        "perron_candidate": chk.is_perron_candidate,
    }
    verdict = "passes" if chk.is_perron_candidate else "fails"
    return inputs, result, [f"{inputs['poly']['display']} {verdict} the Perron conditions"]


def _cmd_padding(args) -> tuple:
    f = parse_poly(_read_arg(args.poly))
    pad = cyclotomic_padding(
        f,
        n_net=args.n_net,
        search_bound=args.search_bound,
        max_degree=args.max_degree,
        max_mult=args.max_mult,
        tol=args.tol,
    )
    result = {"found": pad is not None}
    if pad is not None:
        result.update(
            {
                "phi": _poly_obj(pad.phi),
                "indices": list(pad.indices),
                "net": list(pad.net),
            }
        )
    inputs = {
        "poly": _poly_obj(f),
        "n_net": args.n_net,
        "search_bound": args.search_bound,
        "max_degree": args.max_degree,
        "max_mult": args.max_mult,
        "tol": args.tol,
    }
    if pad is None:
        summary = ["no cyclotomic padding found within the search bounds"]
    elif not pad.indices:
        summary = ["net traces already nonnegative; no padding needed"]
    else:
        summary = [f"padding found: indices {list(pad.indices)}, phi = {format_poly(pad.phi)}"]
    return inputs, result, summary


def _cmd_primitivity(args) -> tuple:
    a = parse_matrix(_read_arg(args.matrix))
    prim = primitivity(a)
    return {"matrix": [list(row) for row in a.rows]}, {"primitive": prim}, [f"primitive: {prim}"]


def _cmd_fg_iterate(args) -> tuple:
    phi = parse_endo(_read_arg(args.endo))
    inputs = {
        "endo": format_endo(phi),
        "word": args.word,
        "n_terms": args.iters,
        "budget": args.budget,
    }
    if args.word is not None:
        w = parse_word(_read_arg(args.word), rank=phi.rank)
        seq = iterate_lengths(phi, w, args.iters, budget=args.budget)
        result = {"word": format_word(w), "lengths": list(seq.ints)}
        summary = [f"|phi^n({format_word(w)})| for n = 1..{args.iters}"]
    else:
        seqs = generator_lengths(phi, args.iters, budget=args.budget)
        per = {
            format_word(Word.gen(phi.rank, g)): list(seq.ints)
            for g, seq in enumerate(seqs, 1)
        }
        result = {"per_generator": per}
        summary = [f"|phi^n(g)| for each generator, n = 1..{args.iters}"]
    return inputs, result, summary


def _cmd_fg_growth(args) -> tuple:
    phi = parse_endo(_read_arg(args.endo))
    inputs = {
        "endo": format_endo(phi),
        "k_max": args.k_max,
        "n_terms": args.iters,
        "window": args.window,
        "d_max": args.d_max,
        "budget": args.budget,
        "sum": args.sum,
    }
    report = growth_report_sum if args.sum else endo_growth_report
    rep = report(
        phi, args.k_max, args.iters, window=args.window, d_max=args.d_max, budget=args.budget
    )
    if args.sum:
        result = {"sum_report": _growth_obj(rep)}
        best = rep.max_exact()
    else:
        result = {
            "per_generator": [_growth_obj(r) for r in rep.per_generator],
            "maxima": [_num(v) for v in rep.maxima],
        }
        best = max((v for v in rep.maxima if v is not None), default=None)
    shown = "n/a" if best is None else f"{best:.6f}"
    return inputs, result, [f"largest growth rate: {shown}"]


def _cmd_fg_from_matrix(args) -> tuple:
    a = parse_matrix(_read_arg(args.matrix))
    phi = endo_from_matrix(a)
    ab = abelianization(phi)
    images = [format_word(w) for w in phi.images]
    endo = format_endo(phi, images)
    result = {
        "endo": endo,
        "images": images,
        "abelianization": [list(row) for row in ab.rows],
    }
    return {"matrix": [list(row) for row in a.rows]}, result, [endo]


def _cmd_f2_positive_aut(args) -> tuple:
    a = parse_matrix(_read_arg(args.matrix))
    descent = positive_f2_aut(a)
    phi = descent.endo
    ab = abelianization(phi)
    u, v = phi.images
    images = [format_word(w) for w in phi.images]
    endo = format_endo(phi, images)
    result = {
        "endo": endo,
        "images": images,
        "swapped": descent.swapped,
        "ds": list(descent.ds),
        "abelianization": [list(row) for row in ab.rows],
        "matches_input": ab == a,
        "positive_words": u.is_positive() and v.is_positive(),
        "nielsen_basis": nielsen_verify_basis(u, v),
    }
    return {"matrix": [list(row) for row in a.rows]}, result, [endo]


def _cmd_burau(args) -> tuple:
    beta = _braid_arg(args)
    mat = reduced_burau(beta)
    inputs = {"braid": format_braid(beta), "n": beta.n}
    result = {
        "size": mat.size,
        "matrix": [[_laurent_obj(e) for e in row] for row in mat.entries],
    }
    return inputs, result, [f"reduced Burau matrix, size {mat.size}"]


def _cmd_alexander(args) -> tuple:
    beta = _braid_arg(args)
    det = det_burau_minus_identity(beta)
    alex = alexander_from_det(det, beta.n)
    inputs = {"braid": format_braid(beta), "n": beta.n}
    result = {"alexander": _laurent_obj(alex), "det": _laurent_obj(det)}
    return inputs, result, [f"reduced Alexander polynomial: {alex}"]


def _cmd_lehmer_gap(args) -> tuple:
    beta = _braid_arg(args)
    det = det_burau_minus_identity(beta)
    gap = gap_from_det(det, args.tol)
    alex = alexander_from_det(det, beta.n)
    inputs = {"braid": format_braid(beta), "n": beta.n, "tol": args.tol}
    result = {"gap": gap, "alexander": _laurent_obj(alex)}
    return inputs, result, [f"Mahler measure of det(Burau - I): {gap:.12f}"]


def _cmd_entropy(args) -> tuple:
    beta = _braid_arg(args)
    est = dynnikov_entropy(beta, n_terms=args.iters, accel=not args.no_accel)
    inputs = {
        "braid": format_braid(beta),
        "n": beta.n,
        "n_terms": args.iters,
        "accel": not args.no_accel,
        "budget": args.budget,
    }
    result = {
        "gr1": est.gr1,
        "log_gr1": est.log_gr1,
        "accelerated": est.accelerated,
        "per_generator": [
            {
                "generator": g.generator,
                "estimate": g.estimate,
                "spread": g.spread,
                "last_ratios": list(g.last_ratios),
            }
            for g in est.per_generator
        ],
    }
    return inputs, result, [f"growth rate {est.gr1:.6f}, entropy {est.log_gr1:.6f}"]


# ---------------------------------------------------------------------------
# Parser assembly


class _OnLookup(dict):
    """A dict whose keys are all set from the start, where the value None
    stands for one not built yet: the first lookup of such a key, by []
    or get, stores and returns build(key)."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        if value is None:
            value = self[key] = self._build(key)
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


class _LazySubparsers(argparse._SubParsersAction):
    """argparse's subparsers action, each parser built on first lookup.

    ``register(name, help_text, build)`` lists the name and its help line
    at once, so the top-level help, argparse's choice check and its
    invalid-choice message read every name.  The first lookup of the name
    in the name -> parser map stores build(prog), with the prog that
    add_parser would give.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._builders = {}
        self._name_parser_map = self.choices = _OnLookup(
            lambda name: self._builders[name](f"{self._prog_prefix} {name}")
        )

    def register(self, name, help_text, build):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help_text))
        self._builders[name] = build
        self.choices[name] = None


class _Subcommand(argparse._ActionsContainer):
    """A subcommand's handler ``func`` and its flags, as the Actions that
    add_argument makes on a parser, made without one: ``actions`` maps
    each option string, --json-only's included, to its Action.  The flag
    table reads them, and the subcommand's parser, built only when
    argparse needs it, takes this container as a parent."""

    def __init__(self, func, json_only, flags):
        super().__init__(
            description=None, prefix_chars="-", argument_default=None, conflict_handler="error"
        )
        self.register("type", None, lambda text: text)  # as ArgumentParser registers it
        self.func = func
        self.actions = {"--json-only": json_only}
        for args, kwargs in flags:
            action = self.add_argument(*args, **kwargs)
            self.actions.update(dict.fromkeys(action.option_strings, action))


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree.  It reads no environment, so one parser
    serves every main() call in a process."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """(the whole argparse tree, {subcommand name: its _Subcommand}).  A
    subcommand's entry is built when the flag table or argparse first looks
    it up, and its parser when argparse does."""
    common = argparse.ArgumentParser(add_help=False)
    json_only = common.add_argument(
        "--json-only",
        action="store_true",
        help="suppress the human summary on stderr",
    )

    parser = argparse.ArgumentParser(
        prog="lehmerlab",
        description="Exact tools for Mahler measures, growth rates and braid invariants.",
        epilog="Values starting with '-' need the --flag=value form, "
        'e.g. --poly="-1,-1,1".  @path reads any value from a file.',
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="subcommand", action=_LazySubparsers
    )
    specs = {}
    table = _OnLookup(lambda name: _Subcommand(*specs[name]))

    def flag(*args, **kwargs):
        """One add_argument call, made when the subcommand is first looked up."""
        return args, kwargs

    def add(name, func, help_text, *flags):
        """Register a subcommand, its handler and its flags."""

        def subparser(prog):
            q = argparse.ArgumentParser(prog=prog, parents=[common, table[name]])
            q.set_defaults(func=func)
            return q

        specs[name] = func, json_only, flags
        table[name] = None
        sub.register(name, help_text, subparser)

    poly = flag(
        "--poly",
        required=True,
        help="coefficients 'c0,c1,...' (ascending) or an expression like "
        "'t^10 + t^9 - t^7 - ... + 1'; @path reads a file",
    )
    seq = flag("--seq", required=True, help="comma-separated terms, a_1 first; @path reads a file")
    matrix = flag("--matrix", required=True, help="JSON rows, e.g. '[[2,1],[1,1]]'; @path reads a file")
    braid = (
        flag(
            "--braid",
            required=True,
            help="braid word like 's1 s2^-1 T^2' (T = full twist); @path reads a file",
        ),
        flag("--n", type=int, required=True, help="number of strands"),
    )
    growth = (
        flag("--k-max", type=int, default=3, help="largest k (default %(default)d)"),
        flag(
            "--window", type=int, default=DEFAULT_WINDOW, help="estimator window (default %(default)d)"
        ),
        flag("--d-max", type=int, default=None, help="recurrence degree cap (default: terms/3)"),
    )
    endo = flag("--endo", required=True, help="images like 'a -> a b a; b -> a b'; @path reads a file")
    tol = flag(
        "--tol",
        type=_tol_arg,
        default=None,
        help=f"root-isolation tolerance (default {DEFAULT_TOL:g}, or LEHMERLAB_TOL)",
    )

    budget = flag(
        "--budget",
        type=_budget_arg,
        default=DEFAULT_BUDGET,
        help="work cap for free-group rewriting of words with inverse letters (default %(default)d)",
    )

    add("mahler", _cmd_mahler, "Mahler measure of an integer polynomial", poly, tol)
    add(
        "poly-check",
        _cmd_poly_check,
        "reciprocality, cyclotomic-product, power-substitution and irreducibility checks",
        poly,
    )
    add(
        "hankel",
        _cmd_hankel,
        "Hankel determinants H_{n,k} of a sequence",
        seq,
        flag("--k", type=int, required=True, help="determinant size"),
        flag("--n", type=int, default=None, help="starting index (omit for all n)"),
    )
    add("growth", _cmd_growth, "generalized growth rates GR^(k) of a sequence", seq, *growth, tol)
    add(
        "fit-recurrence",
        _cmd_fit_recurrence,
        "minimal linear recurrence of a sequence",
        seq,
        flag("--d-max", type=int, default=None, help="degree cap (default: max(1, terms // 3))"),
    )
    add(
        "lefschetz",
        _cmd_lefschetz,
        "Lefschetz numbers of an integer matrix action",
        matrix,
        flag("--iters", type=int, default=16, help="number of terms (default %(default)d)"),
        flag(
            "--boundary",
            action="store_true",
            help="surface with boundary: L_n = 1 - tr A^n (default 2 - tr A^n)",
        ),
        tol,
    )
    add(
        "net-trace",
        _cmd_net_trace,
        "Moebius-inverted power sums of a polynomial's roots",
        poly,
        flag("--iters", type=int, default=20, help="number of terms (default %(default)d)"),
    )
    n_net = flag("--n-net", type=int, default=50, help="net traces checked (default %(default)d)")
    add(
        "perron",
        _cmd_perron,
        "Perron conditions: integrality, dominant real root, net traces",
        poly,
        n_net,
        tol,
    )
    add(
        "padding",
        _cmd_padding,
        "cyclotomic factor making all net traces nonnegative",
        poly,
        n_net,
        flag("--search-bound", type=int, default=24, help="largest cyclotomic index tried"),
        flag("--max-degree", type=int, default=12, help="largest total padding degree"),
        flag("--max-mult", type=int, default=3, help="largest multiplicity per index"),
        tol,
    )
    add("primitivity", _cmd_primitivity, "primitivity of a nonnegative integer matrix", matrix)
    add(
        "fg-iterate",
        _cmd_fg_iterate,
        "exact word lengths |phi^n(w)| under an endomorphism",
        endo,
        flag("--word", default=None, help="word to iterate (default: every generator)"),
        flag("--iters", type=int, default=10, help="number of iterates (default %(default)d)"),
        budget,
    )
    add(
        "fg-growth",
        _cmd_fg_growth,
        "generalized growth rates of an endomorphism",
        endo,
        *growth,
        flag("--iters", type=int, default=16, help="length terms used (default %(default)d)"),
        flag(
            "--sum",
            action="store_true",
            help="analyze the summed length sequence instead of per-generator maxima",
        ),
        budget,
    )
    add(
        "fg-from-matrix",
        _cmd_fg_from_matrix,
        "positive endomorphism read off a nonnegative matrix",
        matrix,
    )
    add(
        "f2-positive-aut",
        _cmd_f2_positive_aut,
        "positive automorphism of the rank-2 free group with a given abelianization",
        matrix,
    )
    add("burau", _cmd_burau, "reduced Burau matrix of a braid word", *braid)
    add("alexander", _cmd_alexander, "reduced Alexander polynomial of a braid closure", *braid)
    add("lehmer-gap", _cmd_lehmer_gap, "Mahler measure of det(Burau - I)", *braid, tol)
    add(
        "entropy",
        _cmd_entropy,
        "entropy estimate from the growth of curves under the braid (Dynnikov coordinates)",
        *braid,
        flag("--iters", type=int, default=12, help="iterates used (default %(default)d)"),
        flag("--no-accel", action="store_true", help="disable Aitken acceleration"),
        flag(
            "--budget",
            type=_budget_arg,
            default=DEFAULT_BUDGET,
            help="echoed as inputs.budget; does not limit entropy, which builds no words "
            "(default %(default)d)",
        ),
    )

    return parser, table


def _read_flags(argv):
    """The whole tree's namespace for argv, from the flag table; None unless
    argv[0] is a subcommand and the rest gives its required flags and others
    at most once, each exact, as --flag=value, --flag value (value not
    starting with '-') or a bare store_true flag, values nonempty and typed."""
    entry = _parsers()[1].get(argv[0]) if argv else None
    if entry is None:
        return None
    actions = entry.actions
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        action = actions.get(name)
        if action is None or action.dest in given or (eq and action.nargs == 0):
            return None
        if action.nargs == 0:  # a bare store_true flag
            given[action.dest] = action.const
            continue
        if not eq:
            value = next(tokens, "")
        if not value or (not eq and value[0] == "-"):
            return None
        try:
            given[action.dest] = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    args = argparse.Namespace(command=argv[0])
    for action in actions.values():
        if action.required and action.dest not in given:
            return None
        setattr(args, action.dest, given.get(action.dest, action.default))
    args.func = entry.func
    return args


def _parse_args(argv):
    """The flag table's reading of argv, else the whole tree's parse: every
    usage error, help text and abbreviation is argparse's own."""
    argv = sys.argv[1:] if argv is None else argv
    return _read_flags(argv) or _parsers()[0].parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        try:
            if "tol" in vars(args) and args.tol is None:
                args.tol = _env_tol()
            inputs, result, summary = args.func(args)
            try:
                text = _json_text({"command": args.command, "inputs": inputs, "result": result})
            except ValueError:  # int.__repr__ past sys.get_int_max_str_digits()
                raise ValueError(
                    f"a result integer exceeds the limit ({sys.get_int_max_str_digits()} digits) "
                    "for integer string conversion; PYTHONINTMAXSTRDIGITS=0 lifts it"
                ) from None
        except (
            ValueError,
            ArithmeticError,
            NoRecurrenceFound,
            BudgetError,
            PrecisionError,
            OSError,
        ) as exc:
            error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            print(_json_text(error))
            code = 1
        else:
            print(text)
            if not args.json_only:
                for line in summary:
                    print(line, file=sys.stderr)
            code = 0
        sys.stdout.flush()  # a closed stdout then fails here, not at exit
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more: send what is still buffered to
        # devnull so the interpreter's exit flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
