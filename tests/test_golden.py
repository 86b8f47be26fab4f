"""Golden outputs: five short runs, one per configuration path of the
channel and the feedback protocol, pinned bit for bit.

Each run's `summary()` must equal the recorded one exactly, and the sha256
of its per-user throughputs, mean powers and `record=True` arrays must match.
A change that keeps the arithmetic keeps every value; one that moves a
result by design re-records them and says so in CHANGES.md. The values were
recorded with numpy 2.4.6 on x86-64.
"""

import hashlib

import numpy as np
import pytest

from refimsim.engine import run
from refimsim.presets import get_preset

SCENARIOS = {
    # femto period 2 against macro period 3, edge-only macro tables, no overhearing
    "hetnet5-refim-feedback": dict(
        preset="hetnet5", algorithm="refim", feedback_period_slots=3,
        femto_feedback_period_slots=2, edge_only_feedback=True, femto_overhear=False,
        slots=120, warmup_slots=20),
    "hex19-general-mobile": dict(
        preset="hex19", algorithm="general", sched_loops=2, power_loops=2,
        mobile_users=True, user_speed_kmh=30.0, slots=40, warmup_slots=10),
    "two-cell-gap": dict(preset="two-cell", sinr_gap_db=3.0, slots=60, warmup_slots=20),
    "mixed-density-wf": dict(preset="mixed-density", algorithm="wf", slots=40, warmup_slots=10),
    "hetnet5-eq-splitting": dict(preset="hetnet5", algorithm="eq", spectrum_policy="splitting",
                                 slots=120, warmup_slots=20),
}

ARRAYS = ("throughput_bps", "avg_power_w", "powers", "schedules", "published_users")


def digest(result):
    """summary() plus the sha256 of each pinned array's dtype, shape and bytes."""
    out = dict(result.summary())
    for name in ARRAYS:
        a = np.ascontiguousarray(getattr(result, name))
        h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        out[name] = h.hexdigest()
    return out


def golden_run(name):
    spec = dict(SCENARIOS[name])
    return run(get_preset(spec.pop("preset"), **spec), record=True)


GOLDEN = {
    "hetnet5-eq-splitting": {
        "aat_bps": 8084710.880504493,
        "aet_bps": 135996.00184574962,
        "algorithm": "eq",
        "avg_power_w": "2d7b445c349514604d7fa6225b6477d87ac92e803bced62d92480be6649a086e",
        "base_stations": 42,
        "bisection_budget_misses": 0,
        "bisection_iter_bound": 30,
        "bisection_iter_max": 0,
        "config_hash": "34457b46224b958e",
        "constraint_violations": 0,
        "gat_bps": 3519347.9534316533,
        "kind": "hetnet",
        "powers": "e558801862bbf2a2dd62775a1a36438a42069c28633951b30306839c0fcb824d",
        "published_users": "6a669542bfcb13dc33b60a138ba2758b844e9f615b73af29fc59ed91e8327b52",
        "schedules": "6a11e8fdb95b0edbbe4eea43ce4f54cc8adc64b12c352ea4501fd3c5628ede8c",
        "seed": 1,
        "slots": 120,
        "throughput_bps": "acb183bc279107e75a9208e548354eabee70f711203df8290901670672d9d6aa",
        "users": 280,
        "warmup_slots": 20,
    },
    "hetnet5-refim-feedback": {
        "aat_bps": 12756905.266190521,
        "aet_bps": 489665.1943081553,
        "algorithm": "refim",
        "avg_power_w": "f12e970b78f197d8e32e40ece4f30105099bcc8faff80528fb9a885e5c9a7395",
        "base_stations": 42,
        "bisection_budget_misses": 4849,
        "bisection_iter_bound": 30,
        "bisection_iter_max": 30,
        "config_hash": "7718df20663fa141",
        "constraint_violations": 0,
        "gat_bps": 6453845.728753771,
        "kind": "hetnet",
        "powers": "1ead4dc61fde4c56496de5d6f4d9573658950ae17b2c32288a5b4d401db66cfa",
        "published_users": "03ba78aa2a8b75c92d2e889f81f8f7bc7f48cf8ab5f7899f08f87b3f1e7d09ac",
        "schedules": "cd7431ea2baa3f15472770f61d768a0d91f881507b9d5e45bb35b6f530dc3527",
        "seed": 1,
        "slots": 120,
        "throughput_bps": "d42176c9d12c740597fed926d473dcbec133812df592f081f65d4bb6f8a06692",
        "users": 280,
        "warmup_slots": 20,
    },
    "hex19-general-mobile": {
        "aat_bps": 2755188.7170519624,
        "aet_bps": 327815.2696101273,
        "algorithm": "general",
        "avg_power_w": "82311198bb509c0f42233f0a4e7edbd745646f2206d9db7efcbc86ef0f936dff",
        "base_stations": 19,
        "bisection_budget_misses": 637,
        "bisection_iter_bound": 30,
        "bisection_iter_max": 30,
        "config_hash": "1f367d8a7148af88",
        "constraint_violations": 0,
        "gat_bps": 2130731.987568078,
        "kind": "hex",
        "powers": "bfbd7070b1990c46ec74809ef0a81d80cc172c8e1ba6e3aed7dca0346d8a2b8c",
        "published_users": "c65af1c963807d4efa81d5060fd2ee9eae0d55a25dc77f4ec5445837a5cf612c",
        "schedules": "4778b480d3ccf171e011eba9fe2dc596eec7dd861c075eeb2a908c6aaed48b84",
        "seed": 1,
        "slots": 40,
        "throughput_bps": "185ee5fd025b5bc3de26235b183ce387d2ff03a366ab92e826206201eaac7541",
        "users": 380,
        "warmup_slots": 10,
    },
    "mixed-density-wf": {
        "aat_bps": 2658929.098358798,
        "aet_bps": 230355.9570995106,
        "algorithm": "wf",
        "avg_power_w": "fe7cde2db5ebccfda6ed7bf8e26f469ac2d1468056c8913fd0163e34c3f6fec4",
        "base_stations": 38,
        "bisection_budget_misses": 1132,
        "bisection_iter_bound": 30,
        "bisection_iter_max": 30,
        "config_hash": "82331b8fd17650fd",
        "constraint_violations": 0,
        "gat_bps": 1963716.4361807122,
        "kind": "mixed_density",
        "powers": "b747338acb6d4934e1a9b19faaa3e8c413be024f4d909331367d4e199ae5b099",
        "published_users": "021dded2847446b7c66b2082eeca0fab4d96a961bf3c3647ad0b521f707e828b",
        "schedules": "09b76e0227f1a4ba715cd72983ceb240d350d6e7a2c7cdd7c5fa506aa3d3875a",
        "seed": 1,
        "slots": 40,
        "throughput_bps": "de4fa65e20d75396cc1d0d3c9375e2d7c7107c6c79a316b88ec7126023b67d0e",
        "users": 760,
        "warmup_slots": 10,
    },
    "two-cell-gap": {
        "aat_bps": 3234617.952260247,
        "aet_bps": 1442480.8392846836,
        "algorithm": "refim",
        "avg_power_w": "95ac58e6a92b26707b4f6d60e21721044f0de8e2e535309f3a051231d57594e5",
        "base_stations": 2,
        "bisection_budget_misses": 16,
        "bisection_iter_bound": 30,
        "bisection_iter_max": 30,
        "config_hash": "193c420607e71fc4",
        "constraint_violations": 0,
        "gat_bps": 2918502.6394809773,
        "kind": "two_cell",
        "powers": "2254998027a3aa7b942bdf30e514d5c89d90194a9547cb7fd88ead2eee6bf3cf",
        "published_users": "ecf4d187ae62895156f3d76673d178651fca18eb58f55e9ea7bf57d8d1ff170f",
        "schedules": "a8a1be1344a8d9426b5b0a1aedacc55ca4aaf9717acbd2f6e4510ab9288c298c",
        "seed": 1,
        "slots": 60,
        "throughput_bps": "b8aea08f092acd443729f7de07161206b70c76b4f2c5ddcb9f442cb2df11dd65",
        "users": 40,
        "warmup_slots": 20,
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_output(name):
    assert digest(golden_run(name)) == GOLDEN[name]
