"""Command-line entry point.

    kronbrist <scenario> [--n N] [--q P | --rational] [--tmax T] [--seed S]
              [--attempts K] [--module FILE] [--out FILE] [--format json|table]

Exit status: 0 when every check passes, 1 when any check fails, 2 on usage,
configuration or parse errors, 3 on an internal error (a bug, never a
verdict; the traceback goes to stderr).  The rendered report is byte-stable
for a fixed configuration; elapsed time goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from .linalg import CharacteristicError, FieldSpec
from .modfile import ModuleFileError
from .scenarios import SCENARIOS, ScenarioConfigError, default_config, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    catalog = "\n".join(f"  {name:<32} {spec.description}"
                        for name, spec in sorted(SCENARIOS.items()))
    parser = argparse.ArgumentParser(
        prog="kronbrist",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Exact verification scenarios for n-Kronecker modules.",
        epilog="scenarios:\n" + catalog)
    parser.add_argument("scenario", help="scenario name (see list below)")
    parser.add_argument("--n", type=int, default=None, help="number of arrows")
    parser.add_argument("--q", type=int, default=None, help="prime field size")
    parser.add_argument("--rational", action="store_true",
                        help="work over the rationals (enumeration scenarios refuse)")
    parser.add_argument("--tmax", type=int, default=None, help="largest family index")
    parser.add_argument("--seed", type=int, default=None, help="64-bit scenario seed")
    parser.add_argument("--attempts", type=int, default=None,
                        help="random attempts for isomorphism/extension searches")
    parser.add_argument("--module", default=None, help="module file for user-module checks")
    parser.add_argument("--out", default=None, help="write the report to this file")
    parser.add_argument("--format", choices=("json", "table"), default="table")
    return parser


def _user_file(op, *args, **kwargs):
    """op on a file the user named: one that cannot be read or written is a usage error."""
    try:
        return op(*args, **kwargs)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioConfigError(str(exc)) from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.q is not None and args.rational:
            raise ScenarioConfigError("--q and --rational are mutually exclusive")
        field = None
        if args.rational:
            field = FieldSpec.rationals()
        elif args.q is not None:
            try:
                field = FieldSpec.gf(args.q)
            except CharacteristicError as exc:
                raise ScenarioConfigError(str(exc)) from None
        module_text = None
        if args.module is not None:
            module_text = _user_file(Path(args.module).read_text, encoding="utf-8")
        cfg = default_config(args.scenario, n=args.n, field=field, t_max=args.tmax,
                             seed=args.seed, attempts=args.attempts,
                             module_path=args.module, module_text=module_text)
        report = run_scenario(cfg)
        rendered = report.to_json() if args.format == "json" else report.to_table()
        if args.out:
            _user_file(Path(args.out).write_text, rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
    except (ScenarioConfigError, ModuleFileError) as exc:
        print(f"kronbrist: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("kronbrist: internal error", file=sys.stderr)
        traceback.print_exc()
        return 3

    print(f"elapsed: {report.elapsed_seconds:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
