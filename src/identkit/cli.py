"""Command-line interface.

Subcommands: analyze, ioeq, cyclespace, transform, construct, census.
Every run reports the package version, and the commands that draw random
points (all but ioeq and cyclespace) report their seed, so results can be
reproduced exactly; the default seed comes from the IDENTKIT_SEED
environment variable.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

from . import __version__, identcore, ioeq
from .identcore import HypothesesNotMet
from .ioeq import NoInputReachesOutput
from .graphprops import DEFAULT_CAP, CapExceeded, PreconditionViolated
from .model import ModelError, load_model, read_json

_USER_ERRORS = (
    ModelError,
    HypothesesNotMet,
    NoInputReachesOutput,
    PreconditionViolated,
    CapExceeded,
    OSError,
)


def _default_seed() -> int:
    raw = os.environ.get("IDENTKIT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ModelError(f"IDENTKIT_SEED must be an integer, got {raw!r}") from None


def _parse_leaks(text: str, n: int) -> frozenset[int]:
    if text == "all":
        return frozenset(range(1, n + 1))
    if text == "none":
        return frozenset()
    try:
        return frozenset(int(v) for v in text.split(","))
    except ValueError:
        raise ModelError(f"bad --leaks value {text!r}; expected 'all', 'none', or a comma list")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ModelError(f"bad integer list {text!r}; expected a comma list like '1,2'") from None


def _parse_m_range(text: str, n: int) -> list[int]:
    from . import census

    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ModelError(f"bad --m range {text!r}; expected 'lo..hi'") from None
        for m in (lo, hi):  # before the list is built, so a huge bound allocates nothing
            census.check_row(n, m)
        return list(range(lo, hi + 1))
    return _parse_int_list(text)


def _check_out_dir(path: str) -> None:
    """Raise, before any work is done, the error that writing ``path`` would
    give later when it is a directory, or its directory is missing or not
    writable."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _load(args) -> "CompartmentalModel":
    model = load_model(args.model)
    if args.leaks is not None:
        model = model.with_leaks(_parse_leaks(args.leaks, model.n))
    return model


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        doc = {"version": __version__, "seed": getattr(args, "seed", None), **doc}
        print(json.dumps(doc, indent=2))
    else:
        print(f"identkit {__version__} seed={getattr(args, 'seed', 'n/a')}")
        for line in text_lines:
            print(line)


# -- subcommand handlers -----------------------------------------------


def _cmd_analyze(args) -> int:
    model = _load(args)
    report = identcore.classify_identifiability(model, seed=args.seed, mode=args.mode)
    lines = [
        f"verdict: {report.verdict}",
        f"mode: {report.mode}  params: {report.param_count}  coefficients: {report.coeff_count}",
        f"jacobian rank: {report.jacobian_rank}",
    ]
    if report.expected_dimension_bound is not None:
        lines.append(
            f"expected-dimension bound: {report.expected_dimension_bound} ({report.bound_tier})"
        )
    lines.append(
        "flags: "
        f"strongly_connected={report.strongly_connected} "
        f"strongly_input_output_connected={report.strongly_input_output_connected} "
        f"output_connectable={report.output_connectable}"
    )
    if report.minimality_warning:
        lines.append(
            "warning: multiple outputs without strong connectivity and a leak; "
            "the equations may be non-minimal, so rank does not decide identifiability"
        )
    for screen in report.conditions.screens:
        lines.append(f"screen {screen.name}: {screen.status} ({screen.detail})")
    _emit(args, report.to_dict(), lines)
    return 0


def _cmd_ioeq(args) -> int:
    model = _load(args)
    mode = args.mode or ("diag" if model.leaks == frozenset(model.vertices) else "explicit")
    outputs = [args.output] if args.output is not None else sorted(model.outputs)
    eqs = [ioeq.io_equation(model, j, mode) for j in outputs]
    doc = {
        "mode": mode,
        "equations": [
            {
                "output": eq.output,
                "order": eq.order,
                "lhs": [str(p) for p in eq.lhs],
                "rhs": {str(i): [str(p) for p in coeffs] for i, coeffs in eq.rhs},
                "text": ioeq.render_io_equation(eq),
            }
            for eq in eqs
        ],
    }
    _emit(args, doc, [ioeq.render_io_equation(eq) for eq in eqs])
    return 0


def _cmd_cyclespace(args) -> int:
    from . import cyclespace

    model = _load(args)
    rank, basis = cyclespace.path_cycle_rank(model, cap=args.cap)
    doc = {
        "independent_count": rank,
        "self_cycles": [str(p) for p in basis.self_cycles],
        "cycles": [[list(e) for e in c] for c in basis.cycles],
        "io_paths": [[list(e) for e in p] for p in basis.io_paths],
        "monomials": basis.monomial_strings(),
        "incidence_rank": cyclespace.incidence_rank(model),
        "edge_count": len(model.edges),
        "in_union_out": len(model.in_union_out),
    }
    lines = [
        f"independent paths/cycles: {rank} (|E|+|In u Out| = {len(model.edges) + len(model.in_union_out)})",
        f"monomials: {', '.join(basis.monomial_strings())}",
        f"incidence matrix rank: {doc['incidence_rank']}",
    ]
    _emit(args, doc, lines)
    return 0


def _cmd_transform(args) -> int:
    from . import transforms

    model = _load(args)
    chosen = [x for x in (args.remove_leaks, args.add_leak, args.attach_path) if x is not None]
    if len(chosen) != 1:
        raise ModelError("choose exactly one of --remove-leaks, --add-leak, --attach-path")
    if args.remove_leaks is not None:
        new_model, cert = transforms.remove_leaks(model, _parse_int_list(args.remove_leaks), seed=args.seed)
    elif args.add_leak is not None:
        new_model, cert = transforms.add_leak(model, args.add_leak, seed=args.seed)
    else:
        path = _parse_int_list(args.attach_path)
        if len(path) != 3:
            raise ModelError(f"--attach-path needs three integers k,l,s, got {args.attach_path!r}")
        k, l, s = path
        new_model, cert = transforms.attach_path(model, k, l, s, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(new_model.to_json() + "\n")
    doc = {
        "model": new_model.to_dict(),
        "certificate": cert.to_dict() if cert else None,
        "written_to": args.out,
    }
    lines = [f"model: {new_model.to_json()}"]
    if cert:
        lines.append(f"certificate: {cert.claim}")
        for name, value in cert.hypotheses:
            lines.append(f"  - {name}: {value}")
    else:
        lines.append("certificate: none (hypotheses not established; run analyze)")
    _emit(args, doc, lines)
    return 0


def _cmd_construct(args) -> int:
    from . import transforms

    doc = read_json(args.script, "construction script", ModelError)
    script = transforms.ConstructionScript.from_dict(doc)
    model, certs = transforms.run_construction(script, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(model.to_json() + "\n")
    doc = {
        "model": model.to_dict(),
        "certificates": [c.to_dict() for c in certs],
        "written_to": args.out,
    }
    lines = [f"model: {model.to_json()}"]
    for cert in certs:
        lines.append(f"certificate: {cert.claim}")
    _emit(args, doc, lines)
    return 0


def _cmd_census(args) -> int:
    from . import census

    m_values = _parse_m_range(args.m, args.n)
    out = args.out or f"census_n{args.n}.csv"
    _check_out_dir(out)
    started = time.time()

    def progress(n, m, done, total):
        print(f"  ({n},{m}): {done}/{total} classes", file=sys.stderr, flush=True)

    rows = census.census_table(
        args.n,
        m_values,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        progress=progress if args.verbose else None,
    )
    runtime = time.time() - started
    census.write_csv(rows, out)
    census.write_sidecar(rows, out + ".meta.json", args.seed, runtime)
    doc = {
        "csv": out,
        "sidecar": out + ".meta.json",
        "rows": [dict(zip(census.CSV_HEADER, r.csv_record())) for r in rows],
    }
    lines = [",".join(census.CSV_HEADER)]
    lines += [",".join(r.csv_record()) for r in rows]
    lines.append(f"wrote {out} and {out}.meta.json in {runtime:.1f}s")
    _emit(args, doc, lines)
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="identkit",
        description="Structural identifiability of linear compartmental models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_arg=True, ranks=True):
        if model_arg:
            p.add_argument("--model", required=True, help="model JSON file")
            p.add_argument("--leaks", help="'all', 'none', or comma list overriding the file")
        if ranks:
            p.add_argument(
                "--seed",
                type=int,
                help="picks the prime p near 2^62 (one of three, by seed mod 3) and the one "
                "random point per rank, uniform in 1..p-1; default: $IDENTKIT_SEED, else 0. "
                "A full rank is proof-grade; a deficit is probabilistic (Schwartz-Zippel)",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="rank analysis and verdict")
    common(p)
    p.add_argument("--mode", choices=("explicit", "diag"), default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ioeq", help="print input-output equations")
    common(p, ranks=False)
    p.add_argument("--mode", choices=("explicit", "diag"), default=None)
    p.add_argument("--output", type=int, help="restrict to one output compartment")
    p.set_defaults(func=_cmd_ioeq)

    p = sub.add_parser("cyclespace", help="path/cycle monomials and their rank")
    common(p, ranks=False)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_cyclespace)

    p = sub.add_parser("transform", help="leak removal/addition or path attachment")
    common(p)
    p.add_argument("--remove-leaks", help="comma list of leaks to keep")
    p.add_argument("--add-leak", type=int)
    p.add_argument("--attach-path", help="k,l,s: path of s new vertices from k to l")
    p.add_argument("--out", help="write the transformed model here")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("construct", help="run a construction script")
    common(p, model_arg=False)
    p.add_argument("--script", required=True, help="construction script JSON file")
    p.add_argument("--out", help="write the constructed model here")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("census", help="exhaustive digraph census")
    common(p, model_arg=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", required=True, help="edge counts: '4', '2..4', or '2,3,4'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--checkpoint-dir", help="directory for resumable checkpoints")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except _USER_ERRORS as exc:
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
