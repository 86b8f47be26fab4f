"""The benchmark's workloads: which preset, which overrides, how many slots.

This module imports nothing from the simulator, so the launcher can list the
workload names before any child process (and numpy) starts. README.md says
why each workload was chosen and which layers it exercises.
"""

from dataclasses import dataclass, field

# The Scenario seed whose GAT/AET/AAT are recorded in expected.json. Every
# run simulates it once first, as the warm-up call and the fidelity check.
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    slots: int              # slots per invocation; fixed, so runs compare
    warmup_slots: int       # long enough that seed 1 serves every user (GAT > 0)
    overrides: dict = field(default_factory=dict)
    # worker.SlotProbe's typical time for this workload on the machine that
    # baseline.json was measured on. It only sets the scale of the reported
    # host times: they are seconds at the speed that gives this probe time.
    probe_ref_s: float = 1.0
    cli: bool = False       # drive cli.main with a config file, not engine.run


WORKLOADS = {w.name: w for w in (
    Workload("hex19-refim", "hex19", slots=100, warmup_slots=25,
             overrides={"algorithm": "refim", "feedback_period_slots": 1},
             probe_ref_s=0.035),
    Workload("hetnet10-reduced", "hetnet10", slots=60, warmup_slots=15,
             overrides={"algorithm": "refim", "feedback_period_slots": 10,
                        "edge_only_feedback": True, "femto_overhear": True},
             probe_ref_s=0.130),
    Workload("two-cell-cli", "two-cell", slots=500, warmup_slots=100, probe_ref_s=0.018,
             cli=True),
    Workload("hex19-general-mobile", "hex19", slots=80, warmup_slots=20,
             overrides={"algorithm": "general", "sched_loops": 2, "power_loops": 2,
                        "mobile_users": True, "user_speed_kmh": 3.0},
             probe_ref_s=0.040),
)}
