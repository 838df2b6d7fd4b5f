"""Golden A/B: do two commits write the same bytes on this machine?

    python tests/golden_ab.py [REF]

Exports ``src/`` and ``tests/`` of REF (default ``HEAD~1``) with ``git
archive`` into a temporary directory, then runs ``python tests/test_golden.py``
from that tree and from this checkout, one after the other, each importing
its own ``src/``. Each prints its host tag and the digests of every golden case
(see ``test_golden.py``). The two outputs are compared case by case. Because
both trees run on one host, this check needs no stored digests, so it holds
on any machine, unlike the tagged gate in ``golden_digests.json``.

A change that means to write other bytes lists the cases it changes in this
checkout's ``golden_changes.txt``, one ``case: reason`` per line (``#``
starts a comment). A listed case must differ and an unlisted one must not, so
the list names exactly what one commit changes, and the next commit empties it.

Exit code: 0 when exactly the listed cases differ, 1 when an unlisted case
differs or a listed one does not (each is printed), 2 when a tree could not be
exported or run, or the list cannot be read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHANGES_PATH = Path(__file__).with_name("golden_changes.txt")


def digests(tree: Path, label: str) -> dict:
    """The case -> file -> digest table that ``python tests/test_golden.py`` prints in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "tests/test_golden.py"], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{label}: test_golden.py exited {proc.returncode}\n{proc.stderr}")
    (table,) = json.loads(proc.stdout).values()
    return table


def differences(base: dict, head: dict) -> dict[str, list[str]]:
    """Case -> what differs in it, for each case whose digests differ."""
    cases = {}
    for case in sorted(set(base) | set(head)):
        if case not in base or case not in head:
            cases[case] = [f"only in {'this checkout' if case in head else 'the base'}"]
            continue
        names = sorted(set(base[case]) | set(head[case]))
        if changed := [f"{name} differs" for name in names if base[case].get(name) != head[case].get(name)]:
            cases[case] = changed
    return cases


def read_changes(text: str) -> dict[str, str]:
    """Case -> reason, from ``case: reason`` lines; '#' starts a comment, blanks are skipped."""
    listed = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        case, _, reason = (part.strip() for part in line.partition(":"))
        if not case or not reason or case in listed:
            raise ValueError(f"{CHANGES_PATH.name}:{lineno}: expected one 'case: reason' per case, got {raw!r}")
        listed[case] = reason
    return listed


def verdict(changed: dict[str, list[str]], listed: dict[str, str]) -> list[str]:
    """The lines that fail the check: an unlisted case that differs, a listed case that does not."""
    lines = [f"{case}: {what} (not in {CHANGES_PATH.name})"
             for case, whats in changed.items() if case not in listed for what in whats]
    lines += [f"{case}: listed ({listed[case]}) but unchanged" for case in listed if case not in changed]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ref = argv[0] if argv else "HEAD~1"
    with tempfile.TemporaryDirectory(prefix="golden_ab_") as tmp:
        base_tree = Path(tmp)
        try:
            listed = read_changes(CHANGES_PATH.read_text(encoding="utf-8"))
            archive = subprocess.run(["git", "archive", ref, "src", "tests"], cwd=ROOT,
                                     capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout,
                           capture_output=True, check=True)
            base, head = digests(base_tree, ref), digests(ROOT, "this checkout")
        except (OSError, subprocess.CalledProcessError, RuntimeError, ValueError) as exc:
            stderr = getattr(exc, "stderr", None)
            detail = stderr.decode(errors="replace") if isinstance(stderr, bytes) else ""
            print(f"golden A/B could not run: {exc}\n{detail}", file=sys.stderr)
            return 2
    changed = differences(base, head)
    for case in sorted(set(changed) & set(listed)):
        print(f"{case}: {', '.join(changed[case])} (listed: {listed[case]})")
    failures = verdict(changed, listed)
    for line in failures:
        print(line)
    print(f"{len(base)} golden cases, {ref} against this checkout: {len(changed)} changed, "
          f"{len(listed)} listed, {'as listed' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
