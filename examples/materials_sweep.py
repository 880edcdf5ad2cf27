"""Materials-science parameter sweep over a "native" C library.

The paper's motivating pattern: a performance-critical kernel lives in
compiled C (here: a Lennard-Jones lattice-energy routine, declared with
a real C prototype and bound through the SWIG-analog pipeline of
§III-B/Fig. 3), while Swift scripts the sweep over lattice spacings and
picks the minimum-energy configuration.  Bulk data moves as blobs.

Run:  python examples/materials_sweep.py
"""

import numpy as np

from repro import SwiftRuntime
from repro.swig import NativeLibrary, install_package

# ---------------------------------------------------------------------------
# The "native code": a C-declared kernel.  In the real system this is a
# compiled .so; here the declaration is genuine and the body is NumPy.
# ---------------------------------------------------------------------------

matlib = NativeLibrary("matlib")


@matlib.function("double lattice_energy(double spacing, int n);")
def lattice_energy(spacing, n):
    """Lennard-Jones energy per atom of a 1-D lattice of n atoms."""
    atoms = np.arange(n, dtype=np.float64) * spacing
    diff = atoms[:, None] - atoms[None, :]
    r = np.abs(diff[np.triu_indices(n, k=1)])
    inv6 = (1.0 / r) ** 6
    return float(np.sum(4.0 * (inv6**2 - inv6)) / n)


@matlib.function("void lattice_forces(double spacing, int n, double* f);")
def lattice_forces(spacing, n, f):
    """Store the net force on each atom into caller-provided storage."""
    atoms = np.arange(n, dtype=np.float64) * spacing
    diff = atoms[:, None] - atoms[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(diff != 0, np.abs(diff), np.inf)
        mag = 24.0 * (2.0 / r**13 - 1.0 / r**7) * np.sign(diff)
    f[:n] = np.nansum(mag, axis=1)


# ---------------------------------------------------------------------------
# The Swift program: sweep spacings, compute energies as native leaf
# tasks, reduce to the optimum, then inspect forces through a blob.
# ---------------------------------------------------------------------------

PROGRAM = """
// Extension function wrapping the SWIG-bound native kernel (paper Fig. 3).
(float e) energy(float spacing, int n) "matlib" "1.0" [
    "set <<e>> [ matlib::lattice_energy <<spacing>> <<n>> ]"
];

// Forces come back through a blob (bulk binary data, paper III-B).
(string f0) first_force(float spacing, int n) "matlib" "1.0" [
    "set h [ blobutils::zeroes_float <<n>> ]
     matlib::lattice_forces <<spacing>> <<n>> $h
     set <<f0>> [ blobutils::get_float $h 0 ]
     blobutils::free $h"
];

int n_atoms = 24;
float energies[];
foreach i in [0:20] {
    float spacing = 0.9 + tofloat(i) * 0.02;
    energies[i] = energy(spacing, n_atoms);
}

// dataflow reduction over the sweep
printf("minimum energy per atom: %s", fromfloat(min_float(energies)));

printf("force on atom 0 at spacing 1.12: %s", first_force(1.12, n_atoms));
"""


def workload():
    """(program text, per-rank ``setup``): what :func:`main` runs, and
    what ``repro chaos`` registers under this example's name."""
    return PROGRAM, lambda interp, ctx, client: install_package(interp, matlib)


def main() -> None:
    program, setup = workload()
    rt = SwiftRuntime(workers=4, setup=setup)
    result = rt.run(program)
    for line in result.stdout_lines:
        print(line)
    print()
    print(
        "native kernel called %d times across %d workers"
        % (matlib.functions["lattice_energy"].calls, len(result.worker_stats))
    )


if __name__ == "__main__":
    main()
