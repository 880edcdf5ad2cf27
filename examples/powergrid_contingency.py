"""Power-grid contingency analysis: Fortran + R + Swift.

The paper's application list includes power-grid simulation.  This
example exercises the full interlanguage width of the system:

* the DC power-flow kernel is written as a *Fortran* subroutine, put
  through the FortWrap -> C header -> SWIG pipeline (§III-B), with the
  line-flow vector returned through a blob;
* the per-contingency severity statistics run in embedded *R*;
* *Swift* scripts the N-1 contingency sweep (drop each line, re-solve,
  flag overloads) and reduces the results.

Run:  python examples/powergrid_contingency.py
"""

import numpy as np

from repro import SwiftRuntime
from repro.swig import NativeLibrary, install_package, translate_fortran

# ---------------------------------------------------------------------------
# "Fortran" kernel: declared in Fortran, translated by the FortWrap
# analog, implemented (as the compiled object would be) over NumPy.
# ---------------------------------------------------------------------------

FORTRAN_SOURCE = """
module powerflow
contains
  subroutine dc_flow(inj, n, drop, flows)
    ! DC power flow on a ring of n buses with one line dropped.
    real(8), intent(in) :: inj(n)
    integer, intent(in) :: n
    integer, intent(in) :: drop
    real(8), intent(out) :: flows(n)
  end subroutine dc_flow
end module powerflow
"""

HEADER = translate_fortran(FORTRAN_SOURCE)


def _dc_flow_impl(inj, n, drop, flows):
    """Solve a ring network's DC flow with line `drop` removed.

    Removing one line from a ring leaves a radial chain: flows follow
    from cumulative injections along the chain.
    """
    inj = np.asarray(inj[:n])
    order = [(drop + 1 + k) % n for k in range(n)]
    cumulative = 0.0
    for k in range(n - 1):
        cumulative += inj[order[k]]
        flows[order[k]] = cumulative
    flows[drop] = 0.0  # the dropped line carries nothing


gridlib = NativeLibrary("powerflow")
gridlib.add_header(HEADER, {"dc_flow": _dc_flow_impl})

N_BUSES = 12

PROGRAM = """
// Fortran kernel via FortWrap+SWIG: returns max |flow| after dropping a line
(float worst) solve_contingency(int drop, int n) "powerflow" "1.0" [
    "set inj [ blobutils::from_list $::injections double ]
     set flows [ blobutils::zeroes_float <<n>> ]
     powerflow::dc_flow $inj <<n>> <<drop>> $flows
     set worst 0.0
     for { set i 0 } { $i < <<n>> } { incr i } {
         set f [ expr { abs([ blobutils::get_float $flows $i ]) } ]
         if { $f > $worst } { set worst $f }
     }
     blobutils::free $inj $flows
     set <<worst>> $worst"
];

// R computes the severity assessment over the whole sweep
(string report) assess(float flows[]) "r" "1.0" [
    "set vals [ list ]
     foreach s [ turbine::enumerate <<flows>> ] {
         lappend vals [ turbine::retrieve [ turbine::container_lookup <<flows>> $s ] ]
     }
     set rcode {
f <- c(VALS)
overloads <- sum(f > 2.5)
report <- paste('worst =', sprintf('%.3f', max(f)),
                '| mean =', sprintf('%.3f', mean(f)),
                '| overloaded lines =', overloads)
}
     set rcode [ string map [ list VALS [ join $vals , ] ] $rcode ]
     set <<report>> [ r::eval $rcode report ]"
];

int n = @N@;
float worst[];
foreach line in [0:@LAST@] {
    worst[line] = solve_contingency(line, n);
}
// wait for all members, then run the R assessment on the closed array
printf("contingency sweep: %s", assess_when_ready(worst));

(string rep) assess_when_ready(float w[]) {
    // the members are filled asynchronously; sum_float forces a full
    // barrier on every member before the R stage reads them
    float barrier = sum_float(w);
    wait (barrier) {
        rep = assess(w);
    }
}
"""


def workload():
    """(program text, per-rank ``setup``): what :func:`main` runs, and
    what ``repro chaos`` registers under this example's name."""
    injections = np.random.RandomState(7).uniform(-1, 1, N_BUSES)
    injections -= injections.mean()  # balanced grid

    def setup(interp, ctx, client):
        install_package(interp, gridlib)
        interp.set_var("::injections", " ".join(repr(float(x)) for x in injections))

    src = PROGRAM.replace("@N@", str(N_BUSES)).replace("@LAST@", str(N_BUSES - 1))
    return src, setup


def main() -> None:
    program, setup = workload()
    rt = SwiftRuntime(workers=4, setup=setup)
    result = rt.run(program)
    for line in result.stdout_lines:
        print(line)
    print()
    print(
        "%d contingencies solved by the Fortran kernel"
        % gridlib.functions["dc_flow"].calls
    )


if __name__ == "__main__":
    main()
