"""Command line front-end: ``python -m repro.analysis``.

Exit status is the gate contract: 0 when no finding survives its
``# repro: noqa[RPxxx]`` suppressions, 1 when findings exist, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .registry import all_checkers
from .runner import analyze_paths, find_project_root

#: scanned when no paths are given and they exist under the project root
DEFAULT_SCAN_DIRS = ("src", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Engine invariant analyzer: AST lint rules enforcing the "
            "simulator's correctness contracts (determinism, budget "
            "pairing, DES-process discipline, typed failures, metrics "
            "schema, config hygiene)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to scan (default: "
            + ", ".join(DEFAULT_SCAN_DIRS)
            + " under the project root)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for checker in all_checkers():
            print(f"{checker.rule_id}  {checker.title}", file=out)
        return 0

    paths = [Path(p) for p in args.paths]
    if not paths:
        root_probe = find_project_root([Path.cwd()])
        paths = [
            root_probe / name
            for name in DEFAULT_SCAN_DIRS
            if (root_probe / name).is_dir()
        ]
        if not paths:
            print("error: no paths given and no default dirs found", file=sys.stderr)
            return 2
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    result = analyze_paths(paths)
    if args.format == "json":
        payload = {
            "version": 1,
            "checked_files": result.checked_files,
            "findings": [finding.as_dict() for finding in result.findings],
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        for finding in result.findings:
            print(finding.render_text(), file=out)
        print(
            f"{len(result.findings)} finding(s) across "
            f"{result.checked_files} file(s)",
            file=out,
        )
    return 1 if result.findings else 0
