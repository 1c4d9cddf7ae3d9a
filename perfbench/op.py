"""One benchmark op in a fresh interpreter, as one ``consrate`` CLI launch is.

    python3 op.py RESULT_JSON TRACE KIND [ARGS...]

KIND is ``import`` (set-up only), ``cli`` (ARGS go to ``consrate.cli.main``,
as the console script passes them) or ``rate-stopped`` (no ARGS; the
finite-difference solves of acceptance criterion 6, written to
``solution.npy`` in the working directory). With TRACE 1 the consrate entry
points are wrapped in spans before the op starts. RESULT_JSON receives the set-up timestamp, the op's seconds and
exit code, and the spans. The exit code is the op's.
"""

import json
import sys
import time

import consrate.cli
import numpy as np

IMPORTED_AT = time.monotonic()  # run.py takes the spawn time on the same clock


def _run_cli(args) -> int:
    return consrate.cli.main(args)


# criterion 6's Problem B and K_L, solved over a sweep of discount rates on
# its grid and three refinements: one solve takes about 10 ms, too little to
# time steadily on its own
RATE_STOPPED_GRIDS = (76, 151, 301, 601)
RATE_STOPPED_GAMMAS = (1.5304,) + tuple(round(1.25 + 0.025 * k, 3) for k in range(50))


def _run_rate_stopped(args) -> int:
    # looked up at call time, so traced runs call the wrapped entry points
    c = consrate
    model = c.Vasicek(0.03, 0.5, 0.02)
    blocks = []
    for n in RATE_STOPPED_GRIDS:
        cfg = c.SolverConfig(grid=c.GridFunction.zeros(0.0, 0.15, n), backend=c.FiniteDifference(), m_max=16, n_max=40)
        for gamma in RATE_STOPPED_GAMMAS:
            spec = c.ProblemSpec(model, 0.5, gamma, "B")
            sol = c.solve_problem_b(spec, cfg)
            kl = c.compute_KL(spec, cfg)
            case = np.full(n, float(n)), np.full(n, gamma), np.arange(n, dtype=float)
            blocks.append(np.column_stack(case + (sol.K.nodes, sol.K.values, sol.N_pow.values, kl.values)))
    np.save("solution.npy", np.rec.fromarrays(np.concatenate(blocks).T, names="n,gamma,i,r,K,N_pow,K_L"))
    return 0


OPS = {"cli": _run_cli, "rate-stopped": _run_rate_stopped}


def main(argv) -> int:
    result_path, traced, kind, args = argv[0], argv[1] == "1", argv[2], argv[3:]
    record = {"imported_at": IMPORTED_AT}
    code = 0
    if kind != "import":
        tracer = None
        if traced:
            import tracing

            tracer = tracing.Tracer()
            record["missing_hooks"] = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            code = OPS[kind](args)
        except Exception:  # the op's failure is reported through its exit code
            import traceback

            traceback.print_exc()
            code = 1
        record["op_s"] = time.perf_counter() - t0
        if tracer is not None:
            record["spans"] = tracer.spans
    record["code"] = code
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
