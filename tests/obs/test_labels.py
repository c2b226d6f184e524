"""Property tests: labeled per-shard series reconcile with aggregates.

The probes double-record every component-stamped event — once into the
unlabeled aggregate series, once into the shard-labeled series — so for
every counter family the labeled series must sum *exactly* (``==``, not
approximately) to the aggregate, and every histogram family must merge
bucket-exactly into the aggregate sketch.  Hypothesis drives random
soaks through a sharded fabric and random synthetic recording patterns
to check both invariants hold by construction.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.perf import _drive_batched, _drive_per_op, make_flow_ops
from repro.fabric.fabric import ScheduleFabric
from repro.obs.instruments import Counter, Gauge, Histogram, InstrumentSet
from repro.obs.probes import StandardProbes, shard_labels
from repro.obs.tracer import Tracer


def run_soak(seed, ops, *, shards=3, batched=False):
    probes = StandardProbes()
    tracer = Tracer(buffer_size=65536, observers=[probes])
    fabric = ScheduleFabric(shards=shards, tracer=tracer)
    drive = _drive_batched if batched else _drive_per_op
    drive(fabric, make_flow_ops(ops, seed, flows=32))
    tracer.close()
    return probes.instruments


def merged_labeled_histogram(family):
    labeled = [inst for key, inst in family.items() if key]
    merged = labeled[0].snapshot()
    for hist in labeled[1:]:
        merged.merge(hist)
    return merged


def assert_labeled_series_reconcile(instruments):
    """Every labeled family's series reconcile with its aggregate."""
    checked = 0
    for name, family in instruments.families():
        aggregate = family.get(())
        labeled = [inst for key, inst in family.items() if key]
        if aggregate is None or not labeled:
            continue
        if isinstance(aggregate, Counter):
            assert sum(c.value for c in labeled) == aggregate.value, name
            checked += 1
        elif isinstance(aggregate, Histogram):
            merged = merged_labeled_histogram(family)
            assert merged.to_state() == aggregate.to_state(), name
            checked += 1
    return checked


class TestSoakReconciliation:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        ops=st.integers(min_value=60, max_value=240),
        batched=st.booleans(),
    )
    def test_labeled_series_sum_to_aggregate(self, seed, ops, batched):
        instruments = run_soak(seed, ops, batched=batched)
        checked = assert_labeled_series_reconcile(instruments)
        # The soak must actually produce labeled families to check —
        # an empty pass would vacuously succeed.
        assert checked > 0

    def test_every_op_counter_has_per_shard_series(self):
        instruments = run_soak(20060101, 200, shards=4)
        family = instruments.series("events_insert")
        shard_values = {
            dict(key)["shard"]: counter.value
            for key, counter in family.items()
            if key
        }
        assert set(shard_values) <= {"0", "1", "2", "3"}
        assert sum(shard_values.values()) == family[()].value


class TestSyntheticRecording:
    """The double-record invariant, divorced from the circuit."""

    @settings(max_examples=50, deadline=None)
    @given(
        observations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=1 << 20),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_histogram_merge_is_bucket_exact(self, observations):
        instruments = InstrumentSet()
        for shard, value in observations:
            instruments.hist("cycles").record(value)
            instruments.hist(
                "cycles", labels={"shard": str(shard)}
            ).record(value)
        family = instruments.series("cycles")
        merged = merged_labeled_histogram(family)
        assert merged.to_state() == family[()].to_state()

    @settings(max_examples=50, deadline=None)
    @given(
        observations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=1, max_value=1000),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_counter_sum_is_exact(self, observations):
        instruments = InstrumentSet()
        for shard, amount in observations:
            instruments.counter("ops").inc(amount)
            instruments.counter(
                "ops", labels={"shard": str(shard)}
            ).inc(amount)
        family = instruments.series("ops")
        assert (
            sum(c.value for key, c in family.items() if key)
            == family[()].value
        )

    def test_merge_snapshot_delta_are_label_aware(self):
        instruments = InstrumentSet()
        instruments.counter("ops", labels={"shard": "0"}).inc(3)
        instruments.counter("ops", labels={"shard": "1"}).inc(5)
        before = instruments.snapshot()
        instruments.counter("ops", labels={"shard": "0"}).inc(4)
        deltas = instruments.deltas_since(before)
        series = deltas.series("ops")
        by_shard = {dict(key)["shard"]: c.value for key, c in series.items()}
        assert by_shard == {"0": 4, "1": 0}

        other = InstrumentSet()
        other.counter("ops", labels={"shard": "0"}).inc(10)
        instruments.merge(other)
        assert (
            instruments.counter("ops", labels={"shard": "0"}).value == 17
        )


class TestShardLabels:
    def test_shard_components_strip_the_prefix(self):
        assert shard_labels("shard0") == {"shard": "0"}
        assert shard_labels("shard12") == {"shard": "12"}

    def test_other_components_pass_through(self):
        assert shard_labels("fabric") == {"shard": "fabric"}
        assert shard_labels("shardX") == {"shard": "shardX"}
        assert shard_labels("shard") == {"shard": "shard"}

    def test_gauges_track_per_shard_last_value(self):
        probes = StandardProbes()
        tracer = Tracer(observers=[probes])
        tracer.event("insert", component="shard1", tag=1, occupancy=7)
        tracer.event("insert", component="shard2", tag=2, occupancy=3)
        instruments = probes.instruments
        family = instruments.series("occupancy_now")
        by_shard = {
            dict(key).get("shard"): gauge.value
            for key, gauge in family.items()
            if key
        }
        assert by_shard == {"1": 7.0, "2": 3.0}
        assert isinstance(family[()], Gauge)
        assert family[()].value == 3.0
