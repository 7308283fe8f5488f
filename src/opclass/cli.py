"""Command-line front end.

Commands:
    classify  <file> [--k K ...] [--p P ...] [--tol T] [--format F]
    decompose <mode> <file> [--n N] [--k K] [--format F]
    generate  <kind> [kind flags] --seed S -o <file> [--format F]
    verify    <theorem_id|all> [--trials N] [--max-dim D] [--seed S] -o <file>

Exit codes: 0 success, 1 error, 2 inconclusive verdicts only. Every error,
a command line that does not parse included, is a JSON error document with
exit code 1. The environment variable OPCLASS_SEED supplies the default
seed. Every document is one line of JSON; output files are written
atomically (temporary file plus rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import generators as gen
from . import harness as hs
from .decomposition import nilpotent2_canonical, normal_pure_split, root_decompose, rr_check
from .errors import OpclassError, UsageError
from .linalg import DEFAULT_TOLERANCES, TolerancePolicy
from .matio import atomic_write_text, detect_format, json_text, load_matrix, save_matrix
from .membership import (
    DEFAULT_K_LIST,
    DEFAULT_P_LIST,
    Status,
    _power_verdict,
    chain_violations,
    classify_all,
    is_k_quasi_paranormal,
    is_normal,
    is_normaloid,
    is_quasinormal,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _seed(args) -> int:
    raw = os.environ.get("OPCLASS_SEED", "0") if args.seed is None else args.seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"OPCLASS_SEED must be an integer, got {raw!r}") from None


def _tolerances(args) -> TolerancePolicy:
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT_TOLERANCES
    return dataclasses.replace(DEFAULT_TOLERANCES, tol_decision=float(tol))


def _emit(doc: dict, out: str | None) -> None:
    text = json_text(doc)
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _error_doc(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def cmd_classify(args) -> int:
    tol = _tolerances(args)
    seed = _seed(args)
    matrix = load_matrix(args.file, args.format)
    verdicts = classify_all(
        matrix, k_list=tuple(args.k), p_list=tuple(args.p), tol=tol, seed=seed
    )
    rows = []
    for cls, verdict in verdicts.items():
        row = {"class": cls.name, "params": cls.params}
        row.update(verdict.to_json_dict())
        rows.append(row)
    doc = {
        "command": "classify",
        "input": str(args.file),
        "seed": seed,
        "tolerances": tol.to_json_dict(),
        "verdicts": rows,
        "chain_violations": chain_violations(verdicts),
    }
    _emit(doc, None)
    if any(v.status is Status.INCONCLUSIVE for v in verdicts.values()):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_decompose(args) -> int:
    tol = _tolerances(args)
    seed = _seed(args)
    matrix = load_matrix(args.file, args.format)
    if args.mode == "normal-pure":
        decomp = normal_pure_split(matrix, tol)
    elif args.mode == "root":
        if args.n is None or args.k is None:
            raise OpclassError("root mode requires --n and --k")
        decomp = root_decompose(matrix, args.n, args.k, tol, seed=seed)
    else:
        decomp = nilpotent2_canonical(matrix, tol)
    doc = {
        "command": "decompose",
        "mode": args.mode,
        "input": str(args.file),
        "n": args.n,
        "k": args.k,
        "tolerances": tol.to_json_dict(),
        "decomposition": decomp.to_json_dict(),
    }
    _emit(doc, None)
    return EXIT_OK


# add_argument keywords of a generator parameter's flag, by parameter type.
_FLAG_OPTIONS = {"int": {"type": int, "required": True}, "flag": {"action": "store_true"}}


def _kind_arguments(kind: str):
    """``(flag, add_argument keywords)`` for each parameter of a generator
    kind that has a flag; ``eigenvalues`` has none."""
    for key, type_ in gen.GENERATORS[kind][1].items():
        if key == "lambda":
            yield "--lam", {"dest": key, "default": "1",
                            "help": "complex scalar, e.g. '8' or '1+2j'"}
        elif type_ in _FLAG_OPTIONS:
            yield "--" + key.replace("_", "-"), {"dest": key, **_FLAG_OPTIONS[type_]}


def _build_spec(args, seed: int) -> gen.GenSpec:
    given = vars(args)
    params = {key: given[key] for key in gen.GENERATORS[args.kind][1] if key in given}
    if "lambda" in params:
        lam = complex(params["lambda"])
        params["lambda"] = [lam.real, lam.imag]
    return gen.GenSpec(kind=args.kind, seed=seed, params=params)


def _certify(kind: str, matrix, params: dict, seed: int, tol: TolerancePolicy) -> dict:
    """Self-certification verdicts recorded in the generator sidecar."""
    cert: dict = {}
    if kind in ("unitary", "normal"):
        cert["normal"] = is_normal(matrix, tol)
    if kind == "unitary":
        cert["normaloid"] = is_normaloid(matrix, tol)
    if kind == "jordan":
        k = max(1, int(params["index"]) - 1)
        cert[f"k_quasi_paranormal[k={k}]"] = is_k_quasi_paranormal(
            matrix, k, tol, seed=seed
        )
        cert["normaloid"] = is_normaloid(matrix, tol)
    if kind == "counterexample":
        cert["normaloid"] = is_normaloid(matrix, tol)
        cert["normal"] = is_normal(matrix, tol)
        cert["normal_square"] = _power_verdict(matrix, 2, "normal", tol)
        cert["paranormal"] = is_k_quasi_paranormal(matrix, 0, tol, seed=seed)
        cert["k_quasi_paranormal[k=1]"] = is_k_quasi_paranormal(matrix, 1, tol, seed=seed)
    if kind == "scalar-root":
        cert["normal"] = is_normal(matrix, tol)
        cert["quasinormal"] = is_quasinormal(matrix, tol)
    if kind == "k-quasi":
        k = int(params["k"])
        cert[f"k_quasi_paranormal[k={k}]"] = is_k_quasi_paranormal(
            matrix, max(1, k), tol, seed=seed
        )
    if kind == "rr":
        cert["square_of_normal"] = rr_check(matrix, tol)
    if kind == "ginibre":
        cert["normal"] = is_normal(matrix, tol)
    return {name: verdict.to_json_dict() for name, verdict in cert.items()}


def cmd_generate(args) -> int:
    tol = _tolerances(args)
    spec = _build_spec(args, _seed(args))
    matrix = gen.build(spec)
    fmt = detect_format(args.output, args.format)
    sidecar = {
        "spec": spec.to_json_dict(),
        "format": fmt,
        "tolerances": tol.to_json_dict(),
        "certification": _certify(spec.kind, matrix, spec.params, spec.seed, tol),
    }
    # Nothing is written until the matrix is built and certified.
    save_matrix(args.output, matrix, fmt)
    _emit(sidecar, f"{args.output}.sidecar.json")
    _emit({"command": "generate", "output": str(args.output),
           "sidecar": f"{args.output}.sidecar.json"}, None)
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    seed = _seed(args)
    suites = hs.THEOREM_IDS if args.theorem_id == "all" else (args.theorem_id,)
    cfg = hs.SuiteConfig(
        suites=tuple(suites),
        trials=args.trials,
        max_dim=args.max_dim,
        seed=seed,
        tolerances=tol,
    )
    reports = hs.run_suite(cfg)
    doc = hs.suite_report_json_dict(cfg, reports)
    if args.output:
        _emit(doc, args.output)
    summary = {
        "command": "verify",
        "output": str(args.output) if args.output else None,
        "failures_total": doc["failures_total"],
        "suites": {r.theorem_id: {"trials": r.trials, "passes": r.passes,
                                  "skips": r.skips, "failures": len(r.failures)}
                   for r in reports},
    }
    _emit(summary, None)
    return EXIT_OK if doc["failures_total"] == 0 else EXIT_ERROR


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="override the decision tolerance")
    p.add_argument("--format", choices=["json", "matrix-market"], default=None,
                   help="matrix file format (default: by extension)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed (default: OPCLASS_SEED or 0)")


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ``UsageError`` instead of
    printing usage and exiting 2, which is EXIT_INCONCLUSIVE here. Its
    subparsers are of this class too; ``--help`` still prints and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opclass",
        description="Operator-class membership, decompositions, generators, "
                    "and theorem property suites for complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide class memberships of a matrix file")
    p.add_argument("file")
    p.add_argument("--k", type=int, nargs="+", default=DEFAULT_K_LIST)
    p.add_argument("--p", type=float, nargs="+", default=DEFAULT_P_LIST)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="run a structural decomposition")
    p.add_argument("mode", choices=["normal-pure", "root", "nilpotent2"])
    p.add_argument("file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("generate", help="generate a structured matrix plus sidecar")
    sub_gen = p.add_subparsers(dest="kind", required=True)
    for kind in gen.GENERATOR_KINDS:
        sp = sub_gen.add_parser(kind)
        for flag, options in _kind_arguments(kind):
            sp.add_argument(flag, **options)
        sp.add_argument("-o", "--output", required=True)
        _add_common(sp)
        sp.set_defaults(func=cmd_generate, kind=kind)

    p = sub.add_parser("verify", help="run theorem property suites")
    p.add_argument("theorem_id",
                   help="one of %s, or 'all'" % ", ".join(hs.SUITES))
    p.add_argument("--trials", type=int, default=hs.SuiteConfig.trials)
    p.add_argument("--max-dim", dest="max_dim", type=int, default=hs.SuiteConfig.max_dim)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` keeps no state
    between calls, and building the tree of generator subparsers is most
    of the cost of a short in-process ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (OpclassError, OSError, ValueError) as exc:
        # Bad input (a command line that does not parse, an unreadable file,
        # an out-of-range parameter) ends in the JSON error document, never
        # in usage text or a traceback.
        _emit(_error_doc(exc), None)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
