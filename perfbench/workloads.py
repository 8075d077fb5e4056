"""Workload table: simulator and monitor configs built from a seed.

Every workload runs the same stages (simulate -> monitor -> eval, then a
batched resume replay of a prefix of the trace); what differs is the
simulator, the policy, the horizon and how much of the trace is replayed
in small batches.  ``scale`` shrinks horizons for the smoke test.
"""

LENDING_SIM = {"kind": "lending", "n_a": 100, "n_b": 100, "c_max": 100,
               "policy": "max_reward", "init": "mid-bias"}
LENDING_MON = {"kind": "lending", "n_a": 100, "n_b": 100, "c_max": 100,
               "delta": 0.05}
ATTENTION_SIM = {"kind": "attention", "l": 4, "k": 2, "gamma": 0.0025,
                 "policy": "uniform", "lambda_init": 8.0}
ATTENTION_MON = {"kind": "attention", "gamma": 0.0025, "lambda_min": 4.0,
                 "lambda_max": 12.0, "delta": 0.05}

BATCH_SIZE = 10

# name -> (why, simulator base, monitor, horizon, batches replayed)
WORKLOADS = {
    "lending-stream": (
        "cheap update, so JSON parse, estimate serialization and eval's "
        "O(horizon) memory dominate; bypasses the discovery layer",
        LENDING_SIM, LENDING_MON, 8000, 200),
    "attention-stream": (
        "two estimators per step, eta mapping, clamp and prefix tracking, "
        "Poisson simulator; k = l/2 gives zero mean rate drift",
        ATTENTION_SIM, ATTENTION_MON, 6000, 200),
    "lending-eqopp": (
        "eq_opp without true tallies: the simulator's "
        "grant_probability_below scan dominates; control for the others",
        dict(LENDING_SIM, policy="eq_opp", use_true_tallies=False),
        LENDING_MON, 3000, 200),
    "lending-batched": (
        "the whole trace replayed as many small resumed batches, so "
        "per-call set-up (build, snapshot I/O, file metadata) dominates",
        LENDING_SIM, LENDING_MON, 3000, 300),
}


def build(name, seed, scale=1.0):
    """Return the concrete workload dict for one seed."""
    why, sim_base, mon, horizon, batches = WORKLOADS[name]
    horizon = max(40, int(horizon * scale))
    batches = max(2, min(int(batches * scale), horizon // BATCH_SIZE))
    return {"name": name, "why": why, "seed": seed, "horizon": horizon,
            "simulator": dict(sim_base, horizon=horizon),
            "monitor": dict(mon),
            "batch_size": BATCH_SIZE, "batches": batches}


def simulator_config(w, iteration):
    """Simulator config of one iteration.  Each iteration simulates its
    own trace, so a run's medians average over ~10 trajectories instead
    of resting on one: the eq_opp scan work alone varies by +-14 % from
    one trajectory to the next."""
    return dict(w["simulator"], seed=1000 * w["seed"] + iteration)
