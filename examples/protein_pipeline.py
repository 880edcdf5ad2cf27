"""Protein-analysis pipeline: dataflow pipelines with load balancing.

Reproduces the paper's Fig. 1 pattern at application scale: for every
candidate peptide, stage f (embedded Python: hydrophobicity docking
score with deliberately varying runtime) feeds stage g (embedded R:
statistical acceptance test).  Stage g for peptide i blocks only on its
own stage f — the pipelines proceed independently and the ADLB layer
load-balances the uneven tasks across workers (§II-A).

Run:  python examples/protein_pipeline.py
"""

from repro import SwiftRuntime

N_PEPTIDES = 24

PROGRAM = """
// stage f: compute-intensive docking score in Python (runtime varies
// with sequence length, like real kernels do).  The multi-line Python
// fragment is brace-quoted Tcl; <<seq>> substitutes at compile time.
(string score) dock(string seq) "python" "1.0" [
    "set code {
seq = SEQVAL
kd = {'A': 1.8, 'L': 3.8, 'K': -3.9, 'E': -3.5, 'G': -0.4, 'W': -0.9}
acc = 0.0
for i, a in enumerate(seq):
    for j, b in enumerate(seq):
        acc += kd.get(a, 0.0) * kd.get(b, 0.0) / (abs(i - j) + 1.0)
score = acc / len(seq)
}
    set code [ string map [ list SEQVAL '<<seq>>' ] $code ]
    set <<score>> [ python::eval $code score ]"
];

// stage g: acceptance decision in R
(string verdict) accept(string score) "r" "1.0" [
    "set rcode {
s <- as.numeric(SVAL)
z <- (s - 20.0) / 2.0
verdict <- ifelse(z > 0, 'HIT', 'miss')
}
    set rcode [ string map [ list SVAL '<<score>>' ] $rcode ]
    set <<verdict>> [ r::eval $rcode verdict ]"
];

string bases[];
bases[0] = "ALKE";
bases[1] = "GWAL";
bases[2] = "KKEG";
bases[3] = "ALLW";

foreach b, bi in bases {
    foreach rep in [1:%(reps)d] {
        // build peptides of growing length: runtimes vary ~quadratically
        string seq = python(
            strcat("s = '", b, "' * ", fromint(rep)), "s");
        string score = dock(seq);
        string verdict = accept(score);
        printf("peptide %%i/%%i (len %%i): %%s (score %%s)",
               bi, rep, strlen(seq), verdict, score);
    }
}
""" % {"reps": N_PEPTIDES // 4}


def workload():
    """(program text, per-rank ``setup``): what :func:`main` runs, and
    what ``repro chaos`` registers under this example's name."""
    return PROGRAM, None


def main() -> None:
    program, setup = workload()
    rt = SwiftRuntime(workers=4, trace=True, setup=setup)
    result = rt.run(program)
    hits = sorted(line for line in result.stdout_lines if "HIT" in line)
    print("\n".join(sorted(result.stdout_lines)))
    print()
    print("%d peptides scored, %d hits" % (N_PEPTIDES, len(hits)))
    counts = [w.tasks_run for w in result.worker_stats]
    busy = [w.busy_time for w in result.worker_stats]
    print("per-worker task counts:", counts)
    print("per-worker busy seconds:", ["%.3f" % b for b in busy])
    if max(busy) > 0:
        imbalance = max(busy) / (sum(busy) / len(busy)) - 1
        print("busy-time imbalance: %.1f%% (dynamic load balancing)" % (100 * imbalance))
    print()
    print(result.profile.render())


if __name__ == "__main__":
    main()
