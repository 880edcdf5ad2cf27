"""Iterative fixpoint: connected-component labeling in pure dataflow.

The rule-table torture shape the ROADMAP's scenario item calls for:
label propagation runs for a fixed number of rounds, and every round
registers a fresh wave of dataflow rules whose inputs are the previous
round's still-open TDs — so the engine's rule table churns (create,
block, fire, retire) instead of draining monotonically like a fan-out.
Each ``relax`` below is a composite with a data-dependent branch, so
rules are created *by fired rules* round after round; the final report
ships one embedded-Python leaf task per node through ADLB.

The graph is a 9-node chain with two cut edges — components {0,1,2},
{3,4,5,6}, {7,8} — and min-label propagation converges in <= 4 rounds
(the widest component has diameter 3).

Run:  python examples/fixpoint_labels.py
"""

from repro import SwiftRuntime

N_NODES = 9
N_ROUNDS = 4

# Expected fixpoint: every node labeled by its component's least member.
EXPECTED_ROOTS = [0, 0, 0, 3, 3, 3, 3, 7, 7]

PROGRAM = """
// undirected chain edges: edge[i] == 1 joins nodes i and i+1.
// cut after node 2 and node 6 -> components {0,1,2} {3,4,5,6} {7,8}
int edge[];
edge[0] = 1;
edge[1] = 1;
edge[2] = 0;
edge[3] = 1;
edge[4] = 1;
edge[5] = 1;
edge[6] = 0;
edge[7] = 1;

(int o) min2(int a, int b) {
    int t[];
    t[0] = a;
    t[1] = b;
    o = min_integer(t);
}

// one neighbor's contribution: min with the neighbor's previous-round
// label when the joining edge exists, else the label passes through
(int o) relax(int self_label, int nbr_label, int e) {
    if (e == 1) {
        o = min2(self_label, nbr_label);
    } else {
        o = self_label;
    }
}

// lab is the flattened (round, node) label table: lab[r*%(n)d + i].
// Round r's rules block on round r-1's TDs, so each round is a fresh
// wave of rule creations riding the previous wave's closes.
int lab[];
foreach i in [0:%(last)d] {
    lab[i] = i;
}
foreach r in [1:%(rounds)d] {
    int base = (r - 1) * %(n)d;
    foreach i in [0:%(last)d] {
        if (i == 0) {
            lab[r * %(n)d + i] = relax(lab[base + i], lab[base + i + 1], edge[i]);
        } else {
            if (i == %(last)d) {
                lab[r * %(n)d + i] = relax(lab[base + i], lab[base + i - 1], edge[i - 1]);
            } else {
                int m = relax(lab[base + i], lab[base + i - 1], edge[i - 1]);
                lab[r * %(n)d + i] = relax(m, lab[base + i + 1], edge[i]);
            }
        }
    }
}

// fixpoint readout: a node is a root when it kept its own label
int roots[];
foreach i in [0:%(last)d] {
    if (lab[%(final)d + i] == i) {
        roots[i] = 1;
    } else {
        roots[i] = 0;
    }
}
printf("components: %%i", sum_integer(roots));

// per-node report as embedded-Python leaf tasks (workers, via ADLB)
foreach i in [0:%(last)d] {
    string desc = python(
        strcat("d = 'node ", fromint(i), " -> root ",
               fromint(lab[%(final)d + i]), "'"),
        "d");
    printf("%%s", desc);
}
""" % {
    "n": N_NODES,
    "last": N_NODES - 1,
    "rounds": N_ROUNDS,
    "final": N_ROUNDS * N_NODES,
}


def workload():
    """(program text, per-rank ``setup``): what :func:`main` runs, and
    what ``repro chaos`` registers under this example's name."""
    return PROGRAM, None


def main() -> None:
    program, setup = workload()
    rt = SwiftRuntime(workers=4, engines=2, servers=2, trace=True, setup=setup)
    result = rt.run(program)
    lines = sorted(result.stdout_lines)
    for line in lines:
        print(line)
    assert "components: 3" in lines, lines
    for i, root in enumerate(EXPECTED_ROOTS):
        want = "node %d -> root %d" % (i, root)
        assert want in lines, "missing %r in %r" % (want, lines)
    counters = result.trace.metrics["counters"]
    print()
    print(
        "%d rules churned through %d engines; %d leaf tasks"
        % (
            counters.get("engine.rules_created", 0),
            len(result.engine_stats),
            result.tasks_run,
        )
    )


if __name__ == "__main__":
    main()
