#!/usr/bin/env python3
"""Write the benchmark's pinned bundles from this checkout and count their shoot passes.

    python3 tools/pinned_bundles.py OUTDIR

Builds densify5, swap4 and the sweep at seeds 1-3 with perfbench/run.py's
`build_workload`, runs every operation once through `netxform.cli.main` of
this checkout's `src/`, and writes the inputs and outputs under
OUTDIR/<workload>. An operation's non-empty stdout, such as a `check`
report, goes to OUTDIR/<workload>/<op label>.stdout, so `diff -r` sees it
too. Prints each workload's shoot passes, counted as calls of
`optimal_control._shoot_batch`. A change keeps the pins when `diff -r` of its
OUTDIR and its parent's finds nothing and the printed counts are equal.
Exits 1 when an operation does not exit 0 or writes anything to stderr.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as bench  # noqa: E402  perfbench/run.py
from netxform import cli, optimal_control  # noqa: E402

PINNED = (("densify5", 0), ("swap4", 0), ("sweep", 1), ("sweep", 2), ("sweep", 3))


def run_pinned(name: str, seed: int, outdir: Path) -> int:
    """Run one workload's operations once into outdir; return its shoot passes."""
    ops, _, _ = bench.build_workload(name, seed, outdir / "inputs")
    passes, shoot = [0], optimal_control._shoot_batch

    def counted(*args, **kwargs):
        passes[0] += 1
        return shoot(*args, **kwargs)

    optimal_control._shoot_batch = counted
    try:
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv(outdir))
            first = next(iter(err.getvalue().strip().splitlines()), "")
            if rc != 0 or first:  # a warning or a stray print on stderr fails the run too
                raise RuntimeError(f"{name} {op.label} exited {rc}: {first}")
            if out.getvalue():
                (outdir / f"{op.label}.stdout").write_text(out.getvalue())
    finally:
        optimal_control._shoot_batch = shoot
    return passes[0]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/pinned_bundles.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    for name, seed in PINNED:
        tag = name if name != "sweep" else f"{name}_seed{seed}"
        try:
            passes = run_pinned(name, seed, out / tag)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{tag}: {passes} shoot passes", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
