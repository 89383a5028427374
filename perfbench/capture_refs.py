"""Capture the cli_oneshot reference outputs into refs/.

    PYTHONPATH=src python3 perfbench/capture_refs.py

Run from the root of a checkout.  Writes the classify input matrices and the
gzipped stdout of every command variant the workload can draw.  The stored
outputs are the oracle for later code, so rerun this only on purpose.
"""

import gzip
import json
import os
import subprocess
import sys

import numpy as np

import workloads as wl


def write_matrices():
    from liekernel import RadialPoint, build_element, enumerate_domains, parse_group
    from liekernel.domains import canonical_radial

    for k, (group, label, values) in enumerate(wl.CLASSIFY_CASES):
        fam = parse_group(group)
        dom = next(d for d in enumerate_domains(fam) if d.label == label)
        g = build_element(fam, canonical_radial(fam, RadialPoint(values, dom.signature)))
        pairs = [[float(z.real), float(z.imag)] for z in np.asarray(g).ravel()]
        with open(os.path.join(wl.REFS, f"classify_{k}.matrix.json"), "w", encoding="utf-8") as fh:
            json.dump(pairs, fh)


def main():
    os.makedirs(wl.REFS, exist_ok=True)
    write_matrices()
    seen = set()
    for variants in np.ndindex(len(wl.SU3_BASES), len(wl.NONCOMPACT_GRIDS), len(wl.CLASSIFY_CASES)):
        for name, argv, ref in wl.cli_commands(tuple(int(v) for v in variants)):
            if ref in seen:
                continue
            seen.add(ref)
            out = subprocess.run([sys.executable, "-m", "liekernel"] + argv, check=True,
                                 stdout=subprocess.PIPE).stdout
            if b"_skipped" in out:
                raise SystemExit(f"{ref}: the grid touches a wall; pick another variant")
            with gzip.GzipFile(os.path.join(wl.REFS, ref), "wb", mtime=0) as fh:
                fh.write(out)
            print(f"{ref}: {len(out)} bytes")


if __name__ == "__main__":
    main()
