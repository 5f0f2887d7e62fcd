#!/usr/bin/env python3
"""Fails (exit 1) when a MUSIC group is assembled outside core::Group.

Usage: check_group_builder.py [--root DIR]

Flags any C++ source under src/ tools/ tests/ bench/ examples/ that builds a
MusicReplica with make_unique, or builds an ls::LockStore in a file that
builds a ds::StoreCluster.  Allowed: src/core/group.*, examples/quickstart.cpp
(the hand-built Fig. 1 walkthrough); perfbench/ is not scanned.
"""
import argparse, pathlib, re, sys

ALLOW = {"src/core/group.h", "src/core/group.cc", "examples/quickstart.cpp"}
BUILD = r"make_unique\s*<\s*(?:\w+::)*{0}\s*>|\b(?:\w+::)*{0}\s+\w+\s*[({{]"
REPLICA, LOCKS, STORE = (re.compile(BUILD.format(t)) for t in
                         ("MusicReplica", "LockStore", "StoreCluster"))
ap = argparse.ArgumentParser()
ap.add_argument("--root", type=pathlib.Path,
                default=pathlib.Path(__file__).resolve().parents[1])
root = ap.parse_args().root
bad = []
for d in ("src", "tools", "tests", "bench", "examples"):
    for path in sorted((root / d).rglob("*")):
        rel = path.relative_to(root).as_posix()
        if rel in ALLOW or path.suffix not in (".h", ".hpp", ".cc", ".cpp"):
            continue
        code = [ln.split("//", 1)[0] for ln in path.read_text().splitlines()]
        bad += [f"{rel}:{n}: builds a MusicReplica"
                for n, c in enumerate(code, 1) if REPLICA.search(c)]
        if any(map(LOCKS.search, code)) and any(map(STORE.search, code)):
            bad.append(f"{rel}: builds an ls::LockStore beside a ds::StoreCluster")
print("\n".join(bad) + f"\n{len(bad)} group assemblies outside core::Group"
      if bad else "ok: every MUSIC group is built by core::Group")
sys.exit(1 if bad else 0)
