"""One-off size sweep for the baseline table in ROADMAP.md; not gated.

    python3 perfbench/sweep.py

Times, in this process and once each, on generated planted-package trees
with 25 classes per package and 4 references per class, all from seed 1:
one EB run at 100 and 200 classes, one MO and one LP run at 2,000 classes,
and extraction (parse and resolve) throughput in MB/s on the 2,000-class
tree.
"""

from __future__ import annotations

import sys
import time

from gen import Shape, generate
from run import SRC, scratch_dir

SEED = 1


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(SRC))
    from depnet import (build_graph, detect_eb, detect_lp, detect_mo,
                        parse_corpus, remove_isolated)

    print(f"{'classes':>8s} {'edges':>6s}  measurement")
    for classes in (100, 200, 2000):
        with scratch_dir("sweep-") as work:
            summary = generate(work, SEED,
                               Shape(classes, per_package=25, refs=4))
            sources = [(str(p), p.read_text(encoding="utf-8"))
                       for p in sorted((work / "src").rglob("*.chd"))]
            start = time.perf_counter()
            fqns, deps = parse_corpus(sources)
            extract_s = time.perf_counter() - start
            graph = remove_isolated(build_graph(fqns, deps))
        row = f"{classes:8d} {graph.m:6d}  "
        if classes <= 200:
            print(row + f"one EB run {timed(detect_eb, graph):.2f} s")
        else:
            print(row + f"one MO run {timed(detect_mo, graph, 42):.2f} s, "
                  f"one LP run {timed(detect_lp, graph, 42):.2f} s, "
                  f"extraction {summary.source_bytes / 1e6 / extract_s:.2f} MB/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
