"""Command-line interface.

Exit codes: 0 for a completed run ("Minimal" and "NotMinimal" alike), 1 for
malformed input or bad parameters, 2 for argparse's usage errors (such as a
malformed integer option) and internal errors.  Outputs are byte-deterministic.

The GROUPCUT_THREADS environment variable caps internal parallelism; the
implementation is single-threaded, which satisfies any cap, but the value
is still validated.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pwl import PwlPeriodic

# No groupcut layer is imported here: each command imports the layers it runs,
# so a process compiles only those.  A command that runs face code imports
# complex2d before any other layer: compiling the largest module first lowers
# the process's peak RSS.


class InputError(Exception):
    pass


def _check_threads_env() -> None:
    raw = os.environ.get("GROUPCUT_THREADS")
    if raw is None:
        return
    try:
        if int(raw) < 1:
            raise ValueError
    except ValueError:
        raise InputError(f"GROUPCUT_THREADS must be a positive integer, got {raw!r}")


def _read_json(path: str):
    from . import serialize

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return serialize.loads(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _load_pwl(path: str) -> PwlPeriodic:
    from . import serialize

    return serialize.deserialize_pwl(_read_json(path))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _rat(text: str):
    from .rational import rat_parse

    return rat_parse(text)


# construct's options and their parsers.  argparse parses the integers (a malformed
# one is a usage error, exit 2), ``_cmd_construct`` the rest (malformed, exit 1).
_CONSTRUCT_OPTIONS = {
    "f": _rat,
    "n": int,
    "variant": str,
    "q": int,
    "f_index": int,
    "values": lambda text: [_rat(v) for v in text.split(",")],
    "s_plus": _rat,
    "s_minus": _rat,
}


def _cmd_construct(args) -> int:
    from . import serialize
    from .compendium import REGISTRY, construct

    entry = REGISTRY.get(args.name)
    if entry is None:
        raise InputError(f"unknown family {args.name!r}")
    given = {k: v for k, v in vars(args).items() if k in _CONSTRUCT_OPTIONS and v is not None}
    for k in given:
        if k not in entry.parameters:
            raise InputError(f"family {args.name!r} takes no parameter {k!r}")
    params = {k: _CONSTRUCT_OPTIONS[k](v) for k, v in given.items()}
    try:
        fn = construct(args.name, **params)
    except KeyError as exc:
        raise InputError(f"family {args.name!r} needs parameter {exc.args[0]!r}")
    except NotImplementedError as exc:
        raise InputError(str(exc))
    _emit(serialize.dumps(serialize.serialize_pwl(fn)), args.output)
    return 0


def _cmd_list(args) -> int:
    from .compendium import list_registry

    for entry in list_registry():
        status = "constructible" if entry.constructible else "stub"
        params = ",".join(entry.parameters)
        sys.stdout.write(f"{entry.name}\t{status}\t{params}\t{entry.description}\n")
    return 0


def _cmd_test_minimality(args) -> int:
    from . import complex2d  # noqa: F401 -- first, for the peak RSS (see the module top)
    from . import serialize
    from .pwl import PwlPeriodic

    obj = _read_json(args.function)
    fn = serialize.deserialize_function(obj)
    if isinstance(fn, PwlPeriodic):
        from .minimality import minimality_test

        verdict = minimality_test(fn)
    else:
        from .finite import finite_minimality_test

        verdict = finite_minimality_test(fn)
    _emit(serialize.dumps(serialize.minimality_verdict_json(verdict)), args.output)
    return 0


def _cmd_test_extremality(args) -> int:
    from . import complex2d  # noqa: F401 -- first, for the peak RSS (see the module top)
    from . import serialize
    from .extremality import extremality_test

    verdict = extremality_test(_load_pwl(args.function), oversampling=args.oversampling)
    _emit(serialize.dumps(serialize.extremality_verdict_json(verdict)), args.output)
    if args.certificate is not None:
        if verdict.certificate is None:
            _emit(serialize.dumps({"schema_version": serialize.SCHEMA_VERSION, "certificate": None}), args.certificate)
        else:
            _emit(serialize.dumps(serialize.certificate_json(verdict.certificate)), args.certificate)
    return 0


def _cmd_restrict(args) -> int:
    from . import serialize
    from .finite import restrict_to_finite_group

    g = restrict_to_finite_group(_load_pwl(args.function), args.q, m=args.m)
    _emit(serialize.dumps(serialize.serialize_finite(g)), args.output)
    return 0


def _cmd_interpolate(args) -> int:
    from . import serialize
    from .finite import interpolate_to_infinite_group

    g = serialize.deserialize_finite(_read_json(args.function))
    _emit(serialize.dumps(serialize.serialize_pwl(interpolate_to_infinite_group(g))), args.output)
    return 0


def _cmd_apply(args) -> int:
    from . import serialize
    from .pwl import affine_combine, precompose_scale

    if args.operation == "scale":
        fn = precompose_scale(_load_pwl(args.function), args.lam)
    elif args.operation == "negate":
        fn = precompose_scale(_load_pwl(args.function), -1)
    elif args.operation == "combine":
        if args.other is None or args.a is None or args.b is None:
            raise InputError("combine requires --a, --b and --other")
        fn = affine_combine(
            _rat(args.a), _load_pwl(args.function), _rat(args.b), _load_pwl(args.other)
        )
    else:  # projected_sequential_merge, the last of argparse's choices
        from .compendium import projected_sequential_merge

        fn = projected_sequential_merge(_load_pwl(args.function), args.n)
    _emit(serialize.dumps(serialize.serialize_pwl(fn)), args.output)
    return 0


def _cmd_plot(args) -> int:
    from . import complex2d  # noqa: F401 -- first, for the peak RSS: svg runs face code
    from .svg import plot_2d_diagram, plot_function

    plot = plot_function if args.kind == "function" else plot_2d_diagram  # argparse's choices
    _emit(plot(_load_pwl(args.function)), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcut",
        description="Exact tests and constructions for periodic piecewise linear cut functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a registry family")
    p.add_argument("name")
    for name, parse in _CONSTRUCT_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=int if parse is int else None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("list", help="list registry families")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("test", help="run a decision procedure")
    tsub = p.add_subparsers(dest="test_kind", required=True)
    t = tsub.add_parser("minimality")
    t.add_argument("function")
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_test_minimality)
    t = tsub.add_parser("extremality")
    t.add_argument("function")
    t.add_argument("--oversampling", type=int, default=3)
    t.add_argument("--certificate")
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_test_extremality)

    p = sub.add_parser("restrict", help="sample onto a finite cyclic group")
    p.add_argument("function")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("interpolate", help="piecewise linear interpolant of a finite function")
    p.add_argument("function")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("apply", help="apply an operation to function files")
    p.add_argument("operation", choices=["scale", "negate", "combine", "projected_sequential_merge"])
    p.add_argument("function")
    p.add_argument("--lam", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--other")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("plot", help="render an SVG")
    p.add_argument("kind", choices=["function", "diagram"])
    p.add_argument("function")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_threads_env()
        return args.func(args)
    except (InputError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
