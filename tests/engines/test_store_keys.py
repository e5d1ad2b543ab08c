"""Store-key stability: engine names are part of the persistence contract.

The results store keys (docs/campaigns.md) hash the engine *name* along with
everything else that determines a simulation's outcome.  The engine-registry
refactor must not move existing stored results: these hashes were computed
on the pre-refactor tree and pin the exact byte-level keys for
representative object / compiled / sampled points.  If one of these fails,
either something outcome-relevant leaked into the payloads (bump
``STORE_SCHEMA_VERSION`` instead) or an engine was renamed (don't -- the
built-in names are stable).
"""

from dataclasses import replace

from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.experiments.runner import SweepPoint, sweep_point_key
from repro.stats.store import content_key

#: Byte-identical SHA-256 content keys captured before the engines/ refactor.
PINNED_SWEEP_KEYS = {
    ("default", "compiled"):
        "0af8e31a3bc083c240599c2e8f10ef02f0b7b6bb8f0d72335a2920566b2ea887",
    ("default", "object"):
        "b7b8a079965122f20a74637386671d5d5763298fa7f6c80bb4dc8e1252fb3996",
    ("sampled-plan", "compiled"):
        "206cba204ea870578ae7172eea52431cc49ad0df999ef5d3d7a3705308e17d09",
    ("scenario", "compiled"):
        "3aa16f280ee2144279c2b2a5bc6729b945971fa76432de65e810049a27325eb0",
}

PINNED_CONTEXT_KEYS = {
    "object": "976441b0ec85f44673c2a65150bee7cd01fb69a2e32267b101c57df439e6299d",
    "compiled": "2e921aa77677b244c3fc1de0c584542563fe7917396de6483c7b1fab9d021ec2",
}


def _point(kind: str) -> SweepPoint:
    if kind == "default":
        return SweepPoint()
    if kind == "sampled-plan":
        # A sample_plan forces engine="sampled" into the payload regardless
        # of the engine argument (see sweep_point_payload).
        return SweepPoint(sample_plan="units=8,detail=150,warmup=100")
    assert kind == "scenario"
    return SweepPoint(scenario="het-quad")


def test_sweep_point_keys_are_byte_identical_to_pre_refactor():
    for (kind, engine), expected in PINNED_SWEEP_KEYS.items():
        assert sweep_point_key(_point(kind), engine) == expected, (kind, engine)


def test_context_run_keys_are_byte_identical_to_pre_refactor():
    for engine, expected in PINNED_CONTEXT_KEYS.items():
        context = ExperimentContext(ExperimentSettings.quick(), engine=engine)
        config = context.make_config("c3d")
        key = content_key(context.store_payload("facesim", "c3d", config))
        assert key == expected, engine


def test_every_engine_hashes_to_a_distinct_key():
    """No two engines may share a store key: bit-identical results are
    still cached per engine, so a compiled run never aliases an object run."""
    sweep_keys = {
        engine: sweep_point_key(SweepPoint(), engine)
        for engine in ("object", "compiled")
    }
    assert len(set(sweep_keys.values())) == len(sweep_keys)


#: Keys of broadcast-filter points from before the DRAM-cache prewarm
#: classified its pages shared.
PRE_MARK_SHARED_KEYS = {
    "sweep, prewarm": "e3e9a040e625910e28347b0a74929d5bc6f4d8cd4f61701070ec2187a9c33c4a",
    "sweep, no prewarm": "656d9c1ec5ce934781caebe4d9a884ee74da196969b6b4eb6fd25c492136cf5c",
    "context, prewarm": "5870a46161a6a56f9e46f50f708605188375e75f0f5c449553c59a76a615fb70",
    "context, no prewarm": "c87eff40405b5253dd1901734b595f26fe7e2614234627c73b7aa51f741ba5b7",
}


def test_only_filtered_prewarmed_points_moved_when_prewarm_marked_pages_shared():
    """Marking prewarmed pages shared changed the statistics of every point
    with the broadcast filter and prewarm on, so their keys moved (stored
    results from before must not be served); with prewarm off nothing
    changed, and neither did the key."""
    def context_key(prewarm):
        settings = replace(ExperimentSettings.quick(), prewarm=prewarm)
        context = ExperimentContext(settings)
        config = context.make_config("c3d", broadcast_filter=True)
        return content_key(context.store_payload("facesim", "c3d", config))

    old = PRE_MARK_SHARED_KEYS
    assert sweep_point_key(SweepPoint(broadcast_filter=True)) != old["sweep, prewarm"]
    assert (sweep_point_key(SweepPoint(broadcast_filter=True, prewarm=False))
            == old["sweep, no prewarm"])
    assert context_key(True) != old["context, prewarm"]
    assert context_key(False) == old["context, no prewarm"]


def test_clone_points_key_separately_without_moving_old_keys():
    """The clone frontend joins the payload only when used: a default point
    still hashes to its pre-clone pinned key (asserted above), while a clone
    point gets its own key independent of the placeholder workload."""
    clone_key = sweep_point_key(SweepPoint(clone="work/clone.json"))
    assert clone_key != PINNED_SWEEP_KEYS[("default", "compiled")]
    relabelled = SweepPoint(workload="canneal", clone="work/clone.json")
    assert sweep_point_key(relabelled) == clone_key
