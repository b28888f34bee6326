"""The four workloads and how each is measured and traced.

Every workload drives the program through its public entry points only
(:class:`CityHarness`, :class:`FleetHarness`, a live node's
``app.call_service`` and ``binder.transact_async``), from one process,
one caller and no threads.  The seed makes the inputs; the program sees
only the generated scenario.

Each workload has a *unit of work*, and the shared end-to-end metrics
are stated in it:

=========== ======================= ====================================
workload    unit of work            latency of one unit
=========== ======================= ====================================
city        an order                sim time, first submit -> completion
soak        a simulated second      host time to simulate five of them
storm       a synchronous call      host time of a round of the four calls
storm_async a tick of 4000 calls    host time to queue and deliver them
=========== ======================= ====================================

A measured run repeats identical work (same seed) until its time is up
and reports medians over the repeats, so a burst of host noise moves
one sample, not the result.  Host times are reported in reference
seconds (see :mod:`perfbench.speed`); the notes also give them raw.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.metrics import Metrics, layer_metrics
from perfbench.spans import Summary, Tracer, traced
from perfbench.speed import CALC, CHURN, Kernel, Speedometer
from perfbench.tails import Tail, percentile, tail

clock = time.perf_counter

#: City size of the measured run: a 160-order city takes under a second
#: here, so a run measures dozens of them.
CITY_ORDERS = 160
#: City sizes of the traced scaling ratio, 480 orders against 240.
CITY_BASE = 240
CITY_DOUBLED = 480
#: A measured run goes through distinct cities, each seeded from the
#: run's seed, and times at least this many.  One city's retry storm,
#: and with it the cost of an order, varies by seed by about a sixth
#: (standard deviation); the median over dozens of cities varies less.
#: Latencies pool exactly this many cities, so they repeat for a seed.
CITY_MIN = 16
#: Placement retries (10 simulated seconds apart) a city's migration
#: gets.  While orders keep arriving, fresh orders take the slots that
#: free up, and a migration waits a median of 18 retries for one (at
#: most 33 over 240 seeded cities); with the default limit of 10, about
#: one in five migrations gives up and fails its order.  At 300 every
#: order completes, and the wait shows in the latency tail.
CITY_MIGRATION_RETRIES = 300
#: The soak fleet: 4 drones x 4 tenants, default mix, transient faults.
SOAK = dict(drones=4, tenants_per_drone=4, chaos_level=1)
#: Soak latency samples span this many simulated seconds (~0.1 host s):
#: a one-second sample (~20 ms) doubles when the host stalls a few ms.
SOAK_SAMPLE_S = 5
#: Synchronous calls per storm burst, made in rounds of the four
#: Table 1 calls; the latency of a storm is that of a round (see
#: StormRig.sync_burst).  The p90 of a burst's 100 rounds has 10 beyond
#: it.  With 250 rounds the tail was their p95, which lies on the slope
#: up to the few rounds the host slows by half or more, and it moved by
#: a tenth between runs whose p50 agreed.
STORM_BURST = 400
STORM_ROUND = 4
#: One-way calls queued per sim tick, as many as one async burst of
#: benchmarks/bench_throughput.py queues before it drains the sim, and
#: ticks per async burst (its p75 has 10 ticks beyond it).
ASYNC_BATCH = 4000
ASYNC_BURST = 40
#: Bursts the traced storm runs (once untraced, once traced): 20 000
#: synchronous calls, or 160 000 one-way ones.
TRACED_BURSTS = {"sync_burst": 50, "async_burst": 1}
#: Untraced/traced pairs a traced run times in turn; the tracing
#: overhead is the median over them, as one pair swings with the host.
OVERHEAD_PAIRS = 3
#: A run builds its rig at least this many times for setup_s: a soak
#: build takes most of a second, a city or storm build milliseconds.
SOAK_SETUPS = 5
QUICK_SETUPS = 25
#: A storm run builds a fresh rig this many times in a row before a
#: burst, at most once every SETUP_EVERY_S host seconds, so the setup
#: samples spread over the whole run instead of one moment of it.
SETUP_BLOCK = 4
SETUP_EVERY_S = 1.0
#: Kernel readings taken before and after each build or city, and how
#: far (host seconds) from an interval a reading may lie to count for it.
SPEED_READS = 3
SPEED_PAD_S = 0.05
#: A storm burst or the interval between two sim marks is scaled by the
#: readings within this many host seconds of it.
SPEED_WINDOW_S = 1.0
#: Simulated seconds between the speed readings inside a city run.
CITY_MARK_S = 10.0
#: The city's time is mostly ring routing and the invariant sweep, which
#: follow this kernel; the other workloads use the default one.
CITY_KERNEL = CHURN


class Report:
    """What one run prints: metrics, work counts and failed checks."""

    def __init__(self) -> None:
        self.metrics: Metrics = {}
        self.notes: List[str] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.problems:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, default=str).encode("utf-8")).hexdigest()


def _spans_out(tracer: Tracer, path: Optional[str], report: Report) -> None:
    if path:
        tracer.write_jsonl(path)
        report.notes.append(f"spans written to {path}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat(seconds: float, once: Callable[[], None],
            at_least: int = 1) -> int:
    """Call ``once`` at least ``at_least`` times, then until another call
    would overrun ``seconds``."""
    start = clock()
    runs = 0
    while True:
        once()
        runs += 1
        elapsed = clock() - start
        if runs >= at_least and elapsed + elapsed / runs > seconds:
            return runs


def _latency_metrics(report: Report, p50s: List[float],
                     tails: List[Optional[Tail]], unit_label: str) -> None:
    """Median over repeats of each repeat's p50 and tail (ms)."""
    picked = [t for t in tails if t is not None]
    report.check(len(picked) == len(tails),
                 f"too few {unit_label} for a tail percentile")
    report.metrics["latency_p50_ms"] = statistics.median(p50s)
    if picked:
        report.metrics["latency_tail_ms"] = statistics.median(
            t.value for t in picked)
        first = picked[0]
        report.notes.append(
            f"latency tail is p{first.percentile:g} of {first.samples} "
            f"{unit_label} ({first.beyond} beyond it), median of "
            f"{len(picked)} repeat(s)")


def _scaled_setup(speed: Speedometer, build: Callable):
    """Build one rig between kernel readings: (rig, reference seconds).

    The previous rig's garbage is collected first, so every build, and
    the run that follows it, starts from the same heap and peak RSS does
    not depend on when the collector last ran."""
    gc.collect()
    speed.read(SPEED_READS)
    rig = build()
    speed.read(SPEED_READS)
    return rig, rig.setup_s * speed.scale(
        rig.started, rig.started + rig.setup_s, SPEED_PAD_S)


def _paired(speed: Speedometer, work: Callable):
    """Runs ``work(None)`` and ``work(tracer)``, the latter with hooks
    installed, OVERHEAD_PAIRS times in turn, each between kernel
    readings.  ``work`` returns (result, host seconds of the work).

    Returns the first pair's untraced result, traced result, tracer and
    traced host seconds, and the tracing overhead: the median over pairs
    of traced over untraced reference seconds, minus one."""
    ratios: List[float] = []
    first = None
    for _ in range(OVERHEAD_PAIRS):
        tracer = Tracer()
        pair = []
        for hooks in (None, tracer):
            speed.read(SPEED_READS)
            start = clock()
            if hooks is None:
                result, host_s = work(None)
            else:
                with traced(hooks):
                    result, host_s = work(hooks)
            end = clock()
            speed.read(SPEED_READS)
            pair.append((result, host_s,
                         host_s * speed.scale(start, end, SPEED_PAD_S)))
        (plain, _, plain_ref), (result, traced_s, traced_ref) = pair
        ratios.append(traced_ref / plain_ref)
        if first is None:
            first = (plain, result, tracer, traced_s)
    return first + (statistics.median(ratios) - 1.0,)


def _finish(report: Report, setups: List[float], work_rates: List[float],
            raw_rates: List[float]) -> Report:
    """``work_rates`` in reference seconds, ``raw_rates`` in host ones."""
    report.metrics["setup_s"] = statistics.median(setups)
    report.metrics["peak_rss_mb"] = _peak_rss_mb()
    report.metrics["ok_frac"] = 1.0 - report.failed / report.attempted
    report.metrics["work_per_s"] = statistics.median(work_rates)
    raw = statistics.median(raw_rates)
    report.notes.append(
        f"work_per_s is the median of {len(work_rates)}, setup_s of "
        f"{len(setups)}; in host seconds work_per_s is {raw:.6g} (host "
        f"seconds per reference second "
        f"{report.metrics['work_per_s'] / raw:.3g})")
    return report


# -- speed marks on the sim clock ---------------------------------------------

class SimMarks:
    """Every ``period_s`` simulated seconds, reads the host clock and the
    host speed; each interval's host time excludes the reading."""

    def __init__(self, sim, period_s: float, kernel: Kernel = CALC):
        self.sim = sim
        self.period_us = int(period_s * 1e6)
        self.speed = Speedometer(kernel)
        #: host clock before and after each mark's speed reading
        self.marks: List[Tuple[float, float]] = []
        sim.call_soon(self._mark)

    def _mark(self) -> None:
        before = clock()
        self.speed.read()
        self.marks.append((before, clock()))
        # A city run ends when its event queue drains: end with it.
        if self.sim.peek() is not None:
            self.sim.after(self.period_us, self._mark)

    def intervals_ms(self) -> Tuple[List[float], List[float]]:
        """Each interval's host time, in reference and in host ms."""
        scaled, raw = [], []
        for (_, start), (end, _) in zip(self.marks, self.marks[1:]):
            host_ms = (end - start) * 1e3
            raw.append(host_ms)
            scaled.append(host_ms * self.speed.scale(start, end,
                                                     SPEED_WINDOW_S))
        return scaled, raw


# -- city ---------------------------------------------------------------------

class CityRun:
    """One city instance, with each order's first submit time recorded."""

    def __init__(self, seed: int, orders: int,
                 tracer: Optional[Tracer] = None, probe: bool = True):
        from repro.loadgen import CityHarness, CityScenario

        self.seed = seed
        self.started = clock()
        self.harness = harness = CityHarness(CityScenario(
            seed=seed, orders=orders,
            migration_retry_limit=CITY_MIGRATION_RETRIES))
        self.setup_s = clock() - self.started
        if tracer is not None:
            tracer.sim_now = lambda: harness.sim.now
        self.marks = (SimMarks(harness.sim, CITY_MARK_S, CITY_KERNEL)
                      if probe else None)
        plane = harness.plane
        submit = plane.submit_order
        self.first_us: Dict[str, int] = {}
        self.accepted_us: Dict[str, int] = {}

        def recording_submit(user, *args, **kwargs):
            self.first_us.setdefault(user, plane.sim.now)
            record = submit(user, *args, **kwargs)
            self.accepted_us[user] = plane.sim.now
            return record

        plane.submit_order = recording_submit

    def run(self) -> "CityRun":
        start = clock()
        self.result = self.harness.run()
        self.wall_s = clock() - start
        return self

    def latencies_ms(self) -> List[float]:
        return [(r.completed_t_us - self.first_us[r.user]) / 1e3
                for r in self.harness.plane.records.values()
                if r.state == "completed"]

    def admission_waits_s(self) -> List[float]:
        return [(self.accepted_us[u] - self.first_us[u]) / 1e6
                for u in self.accepted_us]

    def check(self, report: Report) -> None:
        r = self.result
        orders = r.scenario.orders
        report.check(not r.violations,
                     f"city: {len(r.violations)} invariant violation(s)")
        report.check(not r.deadline_hit, "city: sim deadline hit")
        report.check(r.invariant_checks > 0, "city: monitor never ran")
        report.check(r.orders_submitted == orders,
                     "city: not every order was submitted")
        report.check(r.orders_completed + r.orders_failed
                     + r.orders_rejected == orders,
                     "city: completed + failed + rejected != orders")


def _city_seeds(seed: int) -> Iterator[int]:
    """The seeds of the cities a run goes through, in order."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


def city_measure(seed: int, seconds: float) -> Report:
    report = Report()
    speed = Speedometer(CITY_KERNEL)
    setups: List[float] = []
    cities = _city_seeds(seed)
    #: (reference rate, host rate) of each city
    rates: List[Tuple[float, float]] = []
    latencies: List[float] = []
    first: List[CityRun] = []

    def once() -> None:
        city_seed = next(cities)
        run, setup_s = _scaled_setup(
            speed, lambda: CityRun(city_seed, CITY_ORDERS))
        run.run()
        run.check(report)
        completed = run.result.orders_completed
        scaled, raw = run.marks.intervals_ms()
        setups.append(setup_s)
        rates.append((completed / (sum(scaled) / 1e3),
                      completed / (sum(raw) / 1e3)))
        report.attempted += CITY_ORDERS
        report.failed += run.result.orders_failed + run.result.orders_rejected
        if len(rates) <= CITY_MIN:
            latencies.extend(run.latencies_ms())
        if not first:
            first.append(run)

    _repeat(seconds, once, at_least=CITY_MIN)
    # Untimed: the first city again must give the same journal.
    again = CityRun(first[0].seed, CITY_ORDERS, probe=False).run()
    report.check(again.result.digest == first[0].result.digest,
                 "city: same seed gave a different journal digest")
    while len(setups) < QUICK_SETUPS:
        setups.append(_scaled_setup(
            speed, lambda: CityRun(first[0].seed, CITY_ORDERS))[1])
    _latency_metrics(report, [percentile(sorted(latencies), 50.0)],
                     [tail(latencies)], "completed orders")
    report.notes.append(f"{len(rates)} cities")
    return _finish(report, setups, [r[0] for r in rates],
                   [r[1] for r in rates])


def city_trace(seed: int, spans_path: Optional[str] = None) -> Report:
    """Traces the first of the measured run's cities."""
    seed = next(_city_seeds(seed))
    report = Report()
    CityRun(seed, CITY_ORDERS)  # imports, so neither timed run pays them

    def one_city(tracer: Optional[Tracer]):
        # Without SimMarks, so the overhead is the hooks' alone.
        start = clock()
        return (CityRun(seed, CITY_ORDERS, tracer, probe=False).run(),
                clock() - start)

    plain, run, tracer, traced_s, overhead = _paired(
        Speedometer(CITY_KERNEL), one_city)
    # The doubling ratio compares reference seconds, so a change of host
    # speed between the two cities does not move it.
    base = CityRun(seed, CITY_BASE).run()
    doubled = CityRun(seed, CITY_DOUBLED).run()
    base_ms, doubled_ms = (sum(city.marks.intervals_ms()[0])
                           for city in (base, doubled))
    probed = CityRun(seed, CITY_ORDERS).run()
    for instance in (plain, run, base, doubled, probed):
        instance.check(report)
    report.check(run.result.digest == plain.result.digest,
                 "city: traced journal digest differs from untraced")
    report.check(probed.result.digest == plain.result.digest,
                 "city: speed marks changed the journal digest")
    report.attempted = CITY_ORDERS
    report.failed = run.result.orders_failed + run.result.orders_rejected
    report.metrics = layer_metrics(
        Summary(tracer), traced_s, overhead,
        orders=CITY_ORDERS, sim_s=run.result.duration_s,
        migrations=run.result.migrations,
        admission_waits_s=run.admission_waits_s(),
        doubling_ratio=doubled_ms / base_ms)
    _spans_out(tracer, spans_path, report)
    report.notes.append(
        f"{len(tracer)} spans; {CITY_DOUBLED} orders took "
        f"{doubled_ms / 1e3:.2f} reference s ({doubled.wall_s:.2f} host s), "
        f"{CITY_BASE} took {base_ms / 1e3:.2f} ({base.wall_s:.2f})")
    return report


# -- soak ---------------------------------------------------------------------

class SoakRun:
    """One fleet soak: build, then fly every drone to completion."""

    def __init__(self, seed: int, tracer: Optional[Tracer] = None,
                 probe: bool = True):
        from repro.loadgen import FleetHarness, FleetScenario

        self.started = clock()
        self.harness = FleetHarness(FleetScenario(seed=seed, **SOAK))
        self.setup_s = clock() - self.started
        sim = self.harness.system.sim
        if tracer is not None:
            tracer.sim_now = lambda: sim.now
        self.marks = SimMarks(sim, 1.0) if probe else None

    def run(self) -> "SoakRun":
        start = clock()
        self.result = self.harness.run()
        self.wall_s = clock() - start
        return self

    @property
    def completed(self) -> int:
        return len(self.result.completed)

    def fingerprint(self) -> str:
        r = self.result
        return _digest({
            "duration_s": r.duration_s,
            "tenants": {t: s.to_dict() for t, s in r.tenants.items()},
            "waypoints": r.waypoints_serviced,
            "faults": r.faults_injected,
        })

    def check(self, report: Report) -> None:
        r = self.result
        try:
            r.assert_clean()
        except AssertionError as dirty:
            report.check(False, f"soak: {str(dirty).splitlines()[0]}")
        report.check(self.completed == len(r.tenants),
                     f"soak: {len(r.tenants) - self.completed} tenant(s) "
                     f"did not complete")


def soak_measure(seed: int, seconds: float) -> Report:
    report = Report()
    speed = Speedometer()
    setups: List[float] = []
    rates: List[float] = []
    raw_rates: List[float] = []
    p50s: List[float] = []
    tails: List[Optional[Tail]] = []
    prints: List[str] = []

    def once() -> None:
        run, setup_s = _scaled_setup(speed, lambda: SoakRun(seed))
        run.run()
        run.check(report)
        setups.append(setup_s)
        scaled, raw = run.marks.intervals_ms()
        rates.append(len(scaled) / (sum(scaled) / 1e3))
        raw_rates.append(len(raw) / (sum(raw) / 1e3))
        samples = [sum(scaled[i:i + SOAK_SAMPLE_S]) for i in
                   range(0, len(scaled) - SOAK_SAMPLE_S + 1, SOAK_SAMPLE_S)]
        p50s.append(percentile(sorted(samples), 50.0))
        tails.append(tail(samples))
        report.attempted += len(run.result.tenants)
        report.failed += len(run.result.tenants) - run.completed
        prints.append(run.fingerprint())
        report.check(prints[-1] == prints[0],
                     "soak: same seed gave a different outcome")

    _repeat(seconds, once)
    while len(setups) < SOAK_SETUPS:
        setups.append(_scaled_setup(speed, lambda: SoakRun(seed))[1])
    _latency_metrics(report, p50s, tails,
                     f"{SOAK_SAMPLE_S}-simulated-second spans")
    return _finish(report, setups, rates, raw_rates)


def soak_trace(seed: int, spans_path: Optional[str] = None) -> Report:
    report = Report()
    SoakRun(seed)  # imports, so neither timed run pays them

    def one_soak(tracer: Optional[Tracer]):
        # Without SimMarks, so the overhead is the hooks' alone; an
        # untimed copy with them shows they keep behaviour.
        start = clock()
        return SoakRun(seed, tracer, probe=False).run(), clock() - start

    plain, run, tracer, traced_s, overhead = _paired(Speedometer(), one_soak)
    probed = SoakRun(seed).run()
    for instance in (plain, run, probed):
        instance.check(report)
    report.check(run.fingerprint() == plain.fingerprint(),
                 "soak: traced outcome differs from untraced")
    report.check(probed.fingerprint() == plain.fingerprint(),
                 "soak: speed marks changed the outcome")
    report.attempted = len(run.result.tenants)
    report.failed = report.attempted - run.completed
    report.metrics = layer_metrics(
        Summary(tracer), traced_s, overhead,
        sim_s=run.result.duration_s,
        waypoints=run.result.waypoints_serviced,
        faults=run.result.faults_injected)
    _spans_out(tracer, spans_path, report)
    report.notes.append(f"{len(tracer)} spans")
    return report


# -- storm --------------------------------------------------------------------

class StormRig:
    """One node with one storm tenant at its waypoint (device access on),
    and a seeded call sequence: the four Table 1 calls in a shuffled
    order each round."""

    def __init__(self, seed: int, tracer: Optional[Tracer] = None):
        from repro.loadgen import FleetHarness, FleetScenario
        from repro.loadgen.workloads import STORM_CALLS

        self.started = clock()
        harness = FleetHarness(FleetScenario(
            seed=seed, drones=1, tenants_per_drone=1,
            workload_mix=["storm"]))
        slot = harness.slots[0]
        node = slot.node
        self.sim = node.sim
        if tracer is not None:
            tracer.sim_now = lambda: self.sim.now
        node.vdc.waypoint_reached(slot.tenants[0])
        self.app = next(iter(
            node.vdc.drones[slot.tenants[0]].env.apps.values()))
        self.sim.run(until=self.sim.now)
        self.handles = {svc: self.app.get_service(svc)
                        for svc, _, _ in STORM_CALLS}
        self.warm = [self.app.call_service(svc, code, dict(data))
                     for svc, code, data in STORM_CALLS]
        self.setup_s = clock() - self.started
        rng = random.Random(seed)
        self.sequence = []
        assert len(STORM_CALLS) == STORM_ROUND
        for _ in range(STORM_BURST // STORM_ROUND):
            round_ = list(STORM_CALLS)
            rng.shuffle(round_)
            self.sequence += [(svc, code, dict(data))
                              for svc, code, data in round_]
        self._next = 0

    def sync_burst(self, sink: "Replies"):
        """STORM_BURST closed-loop calls: (seconds of each round's four
        calls, wall).

        One call's time depends on which of the four it is (about 9 to
        16 µs here).  The spread of the median call between runs was
        0.15 over ten seeds; that of the median round, 0.05 over five."""
        call = self.app.call_service
        rounds = []
        start = clock()
        for i in range(0, len(self.sequence), STORM_ROUND):
            spent = 0.0
            for svc, code, data in self.sequence[i:i + STORM_ROUND]:
                t0 = clock()
                reply = call(svc, code, data)
                spent += clock() - t0
                sink(reply)
            rounds.append(spent)
        return rounds, clock() - start

    def async_burst(self, sink: "Replies",
                    between: Optional[Callable[[], None]] = None):
        """ASYNC_BURST ticks of ASYNC_BATCH one-way calls, each tick
        drained on the sim clock: (per-tick seconds, their sum).
        ``between`` runs after each tick, outside the timed work."""
        transact_async = self.app.binder.transact_async
        handles, sequence, sim = self.handles, self.sequence, self.sim
        times = []
        position = self._next
        for _ in range(ASYNC_BURST):
            t0 = clock()
            for i in range(position, position + ASYNC_BATCH):
                svc, code, data = sequence[i % STORM_BURST]
                transact_async(handles[svc], code, data, on_reply=sink)
            sim.run(until=sim.now)
            times.append(clock() - t0)
            position = (position + ASYNC_BATCH) % STORM_BURST
            if between is not None:
                between()
        self._next = position
        return times, sum(times)


class Replies:
    """Counts storm replies as they arrive.  It keeps them only when
    asked: holding thousands of replies would make the collector run far
    more often than the program alone does."""

    def __init__(self, keep: bool = False):
        self.ok = 0
        self.bad = 0
        self.kept: Optional[List] = [] if keep else None

    def __call__(self, reply) -> None:
        if isinstance(reply, dict) and reply.get("status") == "ok":
            self.ok += 1
        else:
            self.bad += 1
        if self.kept is not None:
            self.kept.append(reply)

    @property
    def count(self) -> int:
        return self.ok + self.bad


def _storm_measure(seed: int, seconds: float, burst: str,
                   per_burst: int, unit_label: str) -> Report:
    report = Report()
    speed = Speedometer()
    setups: List[float] = []
    rig: Optional[StormRig] = None
    built_at = -SETUP_EVERY_S

    def build(times: int) -> None:
        nonlocal rig
        for _ in range(times):
            rig, setup_s = _scaled_setup(speed, lambda: StormRig(seed))
            setups.append(setup_s)
            warm = Replies()
            for reply in rig.warm:
                warm(reply)
            report.check(warm.bad == 0, "storm: warm-up call failed")
        gc.collect()

    #: per burst: (start, wall, sent, p50 ms, tail) in host time
    bursts = []

    def once() -> None:
        nonlocal built_at
        if clock() - built_at >= SETUP_EVERY_S:
            build(SETUP_BLOCK)
            built_at = clock()
        speed.read()
        start = clock()
        sink = Replies()
        # A tick takes tens of ms: a reading after each scales the burst
        # by the host's speed during it, not only around it.
        extra = {"between": speed.read} if burst == "async_burst" else {}
        times, wall = getattr(rig, burst)(sink, **extra)
        sent = len(times) * per_burst
        report.check(sink.count == sent,
                     f"storm: {sent - sink.count} replies missing")
        report.attempted += sent
        report.failed += sink.bad + sent - sink.count
        ms = sorted(t * 1e3 for t in times)
        bursts.append((start, wall, sent, percentile(ms, 50.0), tail(ms)))

    _repeat(seconds, once)
    speed.read()
    build(max(0, QUICK_SETUPS - len(setups)))
    report.check(report.failed == 0,
                 f"storm: {report.failed} replies not ok")
    rates, raw_rates, p50s, tails = [], [], [], []
    for start, wall, sent, p50, tail_ in bursts:
        scale = speed.scale(start, start + wall, SPEED_WINDOW_S)
        rates.append(sent / (wall * scale))
        raw_rates.append(sent / wall)
        p50s.append(p50 * scale)
        tails.append(tail_._replace(value=tail_.value * scale)
                     if tail_ is not None else None)
    _latency_metrics(report, p50s, tails, unit_label)
    return _finish(report, setups, rates, raw_rates)


def _storm_trace(seed: int, burst: str, per_burst: int,
                 spans_path: Optional[str]) -> Report:
    report = Report()
    bursts = TRACED_BURSTS[burst]

    def build_and_burst(tracer: Optional[Tracer]):
        """((replies, digest of the reply stream), host seconds); the
        digest of each burst is taken outside the timed work, and its
        replies dropped, so they never pile up."""
        start = clock()
        rig = StormRig(seed, tracer)
        elapsed = clock() - start
        sink = Replies(keep=True)
        stream = hashlib.sha256()
        for _ in range(bursts):
            start = clock()
            getattr(rig, burst)(sink)
            elapsed += clock() - start
            stream.update(_digest(sink.kept).encode("ascii"))
            sink.kept.clear()
        return (sink, stream.hexdigest()), elapsed

    StormRig(seed)  # imports, so neither timed run pays them
    (_, plain_digest), (replies, digest), tracer, traced_s, overhead = (
        _paired(Speedometer(), build_and_burst))
    sent = bursts * (STORM_BURST if burst == "sync_burst"
                     else ASYNC_BURST * per_burst)
    report.attempted = sent
    report.failed = replies.bad + sent - replies.count
    report.check(report.failed == 0, f"storm: {report.failed} replies "
                                     f"not ok or missing")
    report.check(digest == plain_digest,
                 "storm: traced replies differ from untraced")
    report.metrics = layer_metrics(Summary(tracer), traced_s, overhead)
    _spans_out(tracer, spans_path, report)
    report.notes.append(f"{len(tracer)} spans")
    return report


def storm_measure(seed: int, seconds: float) -> Report:
    return _storm_measure(seed, seconds, "sync_burst", STORM_ROUND,
                          "rounds of the four calls")


def storm_trace(seed: int, spans_path: Optional[str] = None) -> Report:
    return _storm_trace(seed, "sync_burst", 1, spans_path)


def storm_async_measure(seed: int, seconds: float) -> Report:
    return _storm_measure(seed, seconds, "async_burst", ASYNC_BATCH,
                          "ticks")


def storm_async_trace(seed: int,
                      spans_path: Optional[str] = None) -> Report:
    return _storm_trace(seed, "async_burst", ASYNC_BATCH, spans_path)


#: name -> (measured run, traced run)
WORKLOADS = {
    "city": (city_measure, city_trace),
    "soak": (soak_measure, soak_trace),
    "storm": (storm_measure, storm_trace),
    "storm_async": (storm_async_measure, storm_async_trace),
}
