"""``explore`` — the interleaving explorer and the cluster simulator.

Single thread, three phases per round, in a seed-shuffled order:

* **verdict** — ``explore(bridge_program(), reduce="all")`` on the
  paper-scale 3-car bridge, to a complete verdict (wall time, reported
  as ``latency_us``);
* **naive** — the same program explored without reductions, capped at
  ``NAIVE_RUNS`` runs (decisions per second, in the report);
* **sim** — a fingerprint-reduced ``explore_world`` of the
  ``crash_rejoin`` scenario capped at ``SIM_RUNS`` runs (schedules per
  second, reported as ``throughput_per_s``).  The simulator drives
  real ``ClusterNode``/delivery code on a virtual clock, so the
  cluster protocol shows up here without thread handoffs.

The explored programs are the paper's, fixed; the seed is the
simulated world's seed and the phase order.  Every exploration is
checked: the verdict is complete, deadlock- and failure-free; the
naive terminals and outputs are a subset of the verdict's; the sim
raises no hazard; and every repeat finds exactly the runs, decisions
and terminals the first one found.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from common import Run, geomean, host_scale, median, now_ns, settle

NAIVE_RUNS = 200
SIM_RUNS = 20
SCENARIO = "crash_rejoin"
#: program builds timed per run; ``setup_s`` is their median
SETUPS = 15


def _programs(seed: int) -> dict[str, Callable[[], Any]]:
    """One zero-argument callable per phase, each running one
    exploration from scratch and returning its result."""
    from repro.problems.single_lane_bridge import bridge_program
    from repro.sim import explore_world
    from repro.sim.scenarios import get
    from repro.verify import explore

    scenario = get(SCENARIO)
    return {
        "verdict": lambda: explore(bridge_program(), reduce="all"),
        "naive": lambda: explore(bridge_program(), max_runs=NAIVE_RUNS),
        "sim": lambda: explore_world(scenario.factory(seed),
                                     budget=scenario.budget,
                                     max_runs=SIM_RUNS,
                                     reduce="fingerprint"),
    }


def setup_once(seed: int) -> int:
    """Build the programs and one simulated world, untimed work aside."""
    from repro.core.scheduler import Scheduler
    from repro.core.policy import RandomPolicy
    from repro.problems.single_lane_bridge import bridge_program
    from repro.sim.scenarios import get

    t0 = now_ns()
    bridge_program()(Scheduler(RandomPolicy(seed)))
    world = get(SCENARIO).factory(seed)(None)
    dt = now_ns() - t0
    world.close()
    return dt


class Checker:
    """Output checks shared by every exploration of one run."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.first: dict[str, tuple] = {}
        self.verdict_terminals: set = set()
        self.verdict_outputs: set = set()

    def __call__(self, phase: str, res: Any) -> None:
        run = self.run
        shape = (res.runs, res.decisions, res.pruned_runs,
                 frozenset(res.terminals))
        first = self.first.setdefault(phase, shape)
        run.check(shape == first,
                  f"{phase}: repeat explored {shape[:3]} not {first[:3]}")
        if phase == "verdict":
            run.check(res.complete, "verdict: exploration incomplete")
            run.check(not res.deadlock_possible and not res.failures,
                      "verdict: the correct bridge deadlocked or failed")
            self.verdict_terminals = set(res.terminals)
            self.verdict_outputs = res.output_sets()
        elif phase == "naive":
            if self.verdict_terminals:
                run.check(set(res.terminals) <= self.verdict_terminals
                          and res.output_sets() <= self.verdict_outputs,
                          "naive: terminal or output outside the verdict's")
        else:
            run.check(not res.hazards,
                      f"sim: hazards {[h.kind for h in res.hazards][:5]}")


class Pass:
    def __init__(self) -> None:
        self.walls: dict[str, list[float]] = {"verdict": [], "naive": [],
                                             "sim": []}
        self.rates: dict[str, list[float]] = {"naive": [], "sim": []}
        #: (phase, t0, t1, result) per exploration, in time order
        self.records: list[tuple[str, int, int, Any]] = []

    def costs(self) -> dict[str, float]:
        return {"verdict_s": median(self.walls["verdict"]),
                "naive_s_per_decision": 1 / median(self.rates["naive"]),
                "sim_s_per_run": 1 / median(self.rates["sim"])}


def run_pass(run: Run, programs: dict, check: Checker, seconds: float,
             rng: random.Random, label: str,
             wrap: Callable[[Callable], Callable] = lambda f: f,
             min_rounds: int = 3, keep: bool = False) -> Pass:
    """Rounds of one exploration per phase for ``seconds``, every
    exploration's figures normalised to the nominal host; ``keep``
    holds on to every result (the traced pass needs them), which a bare
    pass must not, or its peak memory would grow with its round count.
    """
    res = Pass()
    t_end = now_ns() + int(seconds * 1e9)
    rnd = 0
    while rnd < min_rounds or now_ns() < t_end:
        order = list(programs)
        rng.shuffle(order)
        for phase in order:
            explore_once = wrap(programs[phase])
            ref = settle()
            t0 = now_ns()
            result = explore_once()
            t1 = now_ns()
            scale = host_scale(ref)
            wall = (t1 - t0) / 1e9
            check(phase, result)
            res.walls[phase].append(wall * scale)
            if keep:
                res.records.append((phase, t0, t1, result))
            rep = {"round": rnd, "wall_s": wall, "scale": scale,
                   "runs": result.runs, "decisions": result.decisions}
            if phase == "naive":
                res.rates["naive"].append(result.decisions / wall / scale)
            elif phase == "sim":
                res.rates["sim"].append(result.runs / wall / scale)
            run.repetition(f"{label}.{phase}", **rep)
        rnd += 1
    return res


def run_bare(run: Run, seconds: float) -> None:
    programs = _programs(run.seed)
    setup_once(run.seed)                       # imports, first-use costs
    setups = []
    for _ in range(SETUPS):
        ref = settle()
        dt = setup_once(run.seed)
        setups.append(dt * host_scale(ref))
    run.metric("setup_s", median(setups) / 1e9, "s", n=len(setups))
    check = Checker(run)
    rng = random.Random(run.seed)
    for phase in programs:                      # warm-up, checked too
        check(phase, programs[phase]())
    res = run_pass(run, programs, check, seconds, rng, "bare")
    costs = res.costs()
    run.metric("latency_us", costs["verdict_s"] * 1e6, "us",
               n=len(res.walls["verdict"]))
    run.metric("throughput_per_s", 1 / costs["sim_s_per_run"], "1/s",
               n=len(res.rates["sim"]))
    run.metric("decisions_per_s", 1 / costs["naive_s_per_decision"], "1/s",
               n=len(res.rates["naive"]))


def run_traced(run: Run, seconds: float, inject_ns: int = 0) -> None:
    import layers
    from tracer import Tracer

    programs = _programs(run.seed)
    check = Checker(run)
    rng = random.Random(run.seed)
    for phase in programs:
        check(phase, programs[phase]())
    bare = run_pass(run, programs, check, seconds * 0.35, rng, "bare",
                    min_rounds=2)
    tracer = Tracer()
    layers.install(tracer, (), inject_ns)
    try:
        t_from = now_ns()
        traced = run_pass(
            run, programs, check, seconds * 0.65, rng, "traced",
            wrap=lambda f: tracer.traced(f, "verify.explorer.explore"),
            min_rounds=2, keep=True)
        t_to = now_ns()
    finally:
        tracer.restore()
    layers.report_common(run, tracer, t_from, t_to)

    # per phase: layer self times over that phase's explorations
    per: dict[str, dict] = {}
    for phase in programs:
        recs = [r for r in traced.records if r[0] == phase]
        windows = [(t0, t1) for _, t0, t1, _ in recs]
        per[phase] = {
            "wall_ns": sum(t1 - t0 for t0, t1 in windows),
            "decisions": sum(r[3].decisions for r in recs),
            "runs": sum(r[3].runs for r in recs),
            "steps": tracer.mark_sum("core.scheduler.steps", windows)[1],
            "layers": tracer.layer_times(windows)}

    bridge_sched = bridge_steps = bridge_explorer = bridge_decisions = 0
    bridge_wall = 0
    for phase in ("verdict", "naive"):
        agg = per[phase]
        lay = agg["layers"]
        bridge_sched += lay.get("core.scheduler.run", {}).get("self_ns", 0)
        bridge_steps += agg["steps"]
        bridge_explorer += sum(lay.get(n, {}).get("self_ns", 0) for n in (
            "verify.explorer.explore", "verify.explorer.run_schedule"))
        bridge_decisions += agg["decisions"]
        bridge_wall += agg["wall_ns"]
    step_ns = bridge_sched / bridge_steps
    run.metric("core.scheduler.step_ns", step_ns, "ns", n=int(bridge_steps))
    run.metric("verify.explorer.self_ns_per_decision",
               bridge_explorer / bridge_decisions, "ns", n=bridge_decisions)
    # spans tile the exploration: wall = scheduler + explorer + rest
    rest = bridge_wall - step_ns * bridge_decisions - bridge_explorer
    run.metric("verify.explorer.unattributed_share", rest / bridge_wall,
               "ratio", n=bridge_decisions)
    run.notes.append(
        f"reconciliation, bridge phases ({bridge_decisions} decisions, "
        f"{bridge_wall / 1e9:.3f} s traced wall): scheduler "
        f"{step_ns:.0f} ns/step x decisions = "
        f"{step_ns * bridge_decisions / 1e9:.3f} s "
        f"({step_ns * bridge_decisions / bridge_wall:.1%}); explorer self "
        f"{bridge_explorer / 1e9:.3f} s "
        f"({bridge_explorer / bridge_wall:.1%}); unattributed "
        f"{rest / 1e9:.3f} s ({rest / bridge_wall:.1%})")

    verdict = next(r for p, _, _, r in traced.records if p == "verdict")
    st = verdict.stats
    for key in ("runs", "decisions", "sleep_prunes", "fingerprint_hits",
                "fingerprint_states"):
        run.metric(f"verify.explorer.{key}", getattr(st, key), "count")
    run.metric("verify.explorer.pruned_runs", verdict.pruned_runs, "count")
    run.metric("verify.explorer.useful_ratio",
               len(verdict.terminals) / verdict.runs, "ratio",
               n=verdict.runs)

    sim = per["sim"]
    applies = sim["layers"].get("sim.world.apply", {}).get("calls", 0)
    run.metric("sim.decisions_per_run", applies / sim["runs"], "count",
               n=sim["runs"])
    sim_lay = sim["layers"]
    sim_self = sum(a["self_ns"] for a in sim_lay.values())
    run.notes.append(
        f"sim phase self time by layer ({sim['runs']} runs, "
        f"{sim['wall_ns'] / 1e9:.3f} s traced wall):")
    for name, a in sorted(sim_lay.items(), key=lambda kv: -kv[1]["self_ns"]):
        run.notes.append(f"  {name:<36} {a['calls']:8d} calls "
                         f"{a['self_ns'] / sim['wall_ns']:7.1%}")
    run.notes.append(f"  {'unattributed':<36} {'':8} "
                     f"{1 - sim_self / sim['wall_ns']:7.1%}")

    cost_b, cost_t = bare.costs(), traced.costs()
    run.metric("obs.tracing_overhead",
               geomean(cost_t[k] / cost_b[k] for k in cost_b), "ratio",
               n=len(cost_b))
    for k in cost_b:
        run.notes.append(f"tracing overhead {k}: "
                         f"{cost_t[k] / cost_b[k]:.3f}x")
    layers.fill_missing(run)
