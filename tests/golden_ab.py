"""Golden A/B: do two commits write the same bytes on this machine?

    python tests/golden_ab.py [REF]

Exports ``src/`` and ``tests/`` of REF (default ``HEAD~1``) with ``git
archive`` into a temporary directory, then runs ``python tests/test_golden.py``
from that tree and from this checkout, one after the other, each importing
its own ``src/``. Each prints its host tag and the digests of every golden case
(see ``test_golden.py``). The two outputs are compared case by case. Because
both trees run on one host, this check needs no stored digests, so it holds
on any machine, unlike the tagged gate in ``golden_digests.json``.

Exit code: 0 when every case has the same digests, 1 when any differs (the
differing cases and files are printed), 2 when a tree could not be exported
or run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests(tree: Path, label: str) -> dict:
    """The case -> file -> digest table that ``python tests/test_golden.py`` prints in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "tests/test_golden.py"], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{label}: test_golden.py exited {proc.returncode}\n{proc.stderr}")
    (table,) = json.loads(proc.stdout).values()
    return table


def differences(base: dict, head: dict) -> list[str]:
    """One line per case or file whose digests differ."""
    lines = []
    for case in sorted(set(base) | set(head)):
        if case not in base or case not in head:
            lines.append(f"{case}: only in {'this checkout' if case in head else 'the base'}")
            continue
        for name in sorted(set(base[case]) | set(head[case])):
            if base[case].get(name) != head[case].get(name):
                lines.append(f"{case}: {name} differs")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ref = argv[0] if argv else "HEAD~1"
    with tempfile.TemporaryDirectory(prefix="golden_ab_") as tmp:
        base_tree = Path(tmp)
        try:
            archive = subprocess.run(["git", "archive", ref, "src", "tests"], cwd=ROOT,
                                     capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout,
                           capture_output=True, check=True)
            base, head = digests(base_tree, ref), digests(ROOT, "this checkout")
        except (subprocess.CalledProcessError, RuntimeError, ValueError) as exc:
            stderr = getattr(exc, "stderr", None)
            detail = stderr.decode(errors="replace") if isinstance(stderr, bytes) else ""
            print(f"golden A/B could not run: {exc}\n{detail}", file=sys.stderr)
            return 2
    lines = differences(base, head)
    for line in lines:
        print(line)
    print(f"{len(base)} golden cases, {ref} against this checkout: "
          f"{'no difference' if not lines else f'{len(lines)} difference(s)'}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
