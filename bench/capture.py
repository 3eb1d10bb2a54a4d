"""Write bench/reference.json: the expected outputs the workload checks
compare against where no closed form or law applies.

    PYTHONPATH=src python3 bench/capture.py

Captured once from a commit whose outputs are trusted (the tier-1 suite
passes there); rerun only when an output is meant to change.  It records:

* tower: per tower (m, p) and scalar c, the digest of [a_n, projection] at
  each level n of the tower;
* formula: the digest of the annihilator_In_formula rows at every
  lattice_grid level without an oracle check (phi(n) > 16);
* tn_rows: the digest of the projected starred T_n rows at the pairs where
  criterion 04's law does not apply;
* cli: the digest of each README command's report, echoed seed removed.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from workloads import digest  # noqa: E402


def capture_towers():
    from circdist import coleman, groupring
    out = {}
    for m, p, depth in workloads.TOWERS:
        for c in workloads.TOWER_SCALARS:
            table = workloads.tower_table(m, p, depth, c)
            rows = []
            for n in range(1, depth + 1):
                a = coleman.p_integral_exponent(table.value(m * p ** n), p)
                rows.append(digest([groupring.gr_to_json(a),
                                    groupring.gr_to_json(a.project(to_level=m))]))
            out["%d,%d,%d" % (m, p, c)] = rows
    return out


def capture_lattices():
    from circdist import groupring, polys
    formula, laws, _ = workloads.lattice_plan()
    rows = {}
    for n in formula:
        if polys.euler_phi(n) > 16:
            lat = groupring.annihilator_In_formula(n)
            rows[str(n)] = digest([list(r) for r in lat.hnf])
    tn = {}
    for big, pairs in laws:
        top = None
        for n, ell in pairs:
            if not workloads.tn_law_applies(n, ell):
                top = top or groupring.annihilator_Tn(big, starred=True)
                proj = groupring.project_annihilator(big, n, top)
                tn["%d,%d" % (n, ell)] = digest([list(r) for r in proj.hnf])
    return rows, tn


def capture_cli():
    out = []
    for argv, code in workloads.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "circdist.cli", *argv, "--seed", "0"],
                              capture_output=True, check=False)
        if proc.returncode != code:
            raise SystemExit("%s exited %d, expected %d" % (argv[0], proc.returncode, code))
        out.append(workloads.report_digest(proc.stdout))
    return out


def main():
    formula, tn = capture_lattices()
    ref = {"tower": capture_towers(), "formula": formula, "tn_rows": tn,
           "cli": capture_cli()}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
