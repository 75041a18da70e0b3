"""Process-pool execution of pipeline cells against a shared memo.

The executor makes a whole experiment sweep multicore without touching
driver logic: it precomputes every planned cell in ``jobs`` worker
processes, each writing its result into the same on-disk JSON memo the
sequential path uses (``os.replace`` makes those writes atomic, so
workers race safely).  Afterwards the drivers run unchanged in the
parent and find every cell already memoized — which is also the core
correctness invariant: the parallel path must produce byte-identical
``RunRecord`` / ``MatrixMetrics`` JSON to the sequential path.

De-duplication happens *before* submission (:func:`dedupe_cells`), so
no two workers ever simulate the same memo key; cells whose memo file
already exists are skipped entirely.  Cells sharing a ``(matrix,
technique)`` pair are grouped into one worker task: the reordering
permutation is memoized only in-process (spans show it at ~50% of
pipeline time), so scattering those cells across workers would
recompute it per worker — grouping runs it exactly once, like the
sequential path.

Resilience (:mod:`repro.resilience`): every cell runs under the
caller's :class:`~repro.resilience.RetryPolicy` and optional per-cell
wall-clock timeout.  Transient failures — worker death, timeouts,
injected :class:`~repro.errors.TransientError` — are retried with
exponential backoff (a broken pool is rebuilt for the retry round);
deterministic failures such as :class:`ValidationError` fail fast.  In
strict mode (the default) any permanent failure raises
:class:`~repro.errors.SweepFailure`; under ``keep_going`` it is
recorded in the stats' :class:`~repro.resilience.FailureReport` and the
sweep completes with partial results.  A retried group replays its
already-finished cells as memo hits, so progress is never lost.
Completed cell labels are checkpointed to the optional
:class:`~repro.resilience.SweepManifest` as they finish, enabling
``--resume`` after a kill.

Observability: each worker runs its cell under a private, enabled
:class:`Instrumentation` and ships its full counter snapshot
(counters, gauges, histograms) plus span totals back with the result;
the parent folds them in (:meth:`Instrumentation.merge_counter_snapshot`
/ :meth:`~Instrumentation.merge_span_totals`) so ``repro profile`` and
``repro cache-stats`` stay truthful under parallelism.  Counters add,
gauges merge max-wins, histograms merge exactly by bucket addition —
all order-independent folds, so parallel telemetry is deterministic
regardless of pool completion order.  Recovery actions tick the
``resilience.retries`` / ``resilience.cells_failed`` counters and the
``cell.attempts`` histogram.

Trace stitching: when the parent instrumentation is enabled, workers
inherit a :class:`TraceContext` — the parent's ``run_id``, its current
span id, and (when a run ledger is active) the run directory.  Each
worker roots its spans under the parent span id and appends its events
to ``events-w<pid>.jsonl`` in the run directory, so ``repro trace
<run_id>`` reassembles one logical span tree across every process.

Workers are spawned (not forked) so the path behaves identically on
Linux, macOS and Windows and never inherits parent threads mid-state.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import SweepFailure, ValidationError
from repro.experiments.runner import ExperimentRunner
from repro.gpu.specs import PlatformSpec
from repro.obs import (
    Clock,
    Instrumentation,
    JsonlSink,
    ProgressReporter,
    get_obs,
    logger,
    using,
)
from repro.parallel.cells import METRICS, Cell, dedupe_cells
from repro.parallel.planner import plan_cells
from repro.resilience import (
    CellFailure,
    FailureReport,
    RetryPolicy,
    SweepManifest,
    cell_deadline,
    fault_point,
    is_transient,
)


@dataclass(frozen=True)
class RunnerConfig:
    """Picklable construction recipe for an :class:`ExperimentRunner`.

    Workers rebuild their runner from this, so parent and workers agree
    on profile, memo directory, schedule and platform — and therefore
    on every memo key.
    """

    profile: str
    cache_dir: str
    use_cache: bool = True
    schedule: str = "sequential"
    platform: Optional[PlatformSpec] = None

    @classmethod
    def from_runner(cls, runner: ExperimentRunner) -> "RunnerConfig":
        return cls(
            profile=runner.profile,
            cache_dir=runner.cache_dir,
            use_cache=runner.use_cache,
            schedule=runner.schedule,
            platform=runner.platform,
        )

    def make_runner(self) -> ExperimentRunner:
        return ExperimentRunner(
            profile=self.profile,
            platform=self.platform,
            cache_dir=self.cache_dir,
            use_cache=self.use_cache,
            schedule=self.schedule,
        )


@dataclass(frozen=True)
class TraceContext:
    """Picklable trace inheritance shipped to workers via ``initargs``.

    ``run_id`` keeps every process's events in one logical trace;
    ``parent_span_id`` is the parent's span open at pool construction
    (the experiment root), so worker spans stitch under it;
    ``events_dir`` is the run-ledger directory workers append their
    ``events-w<pid>.jsonl`` to (``None`` when no ledger is active).
    """

    run_id: str
    parent_span_id: Optional[str] = None
    events_dir: Optional[str] = None

    @classmethod
    def from_obs(cls, instr: Instrumentation) -> Optional["TraceContext"]:
        if not instr.enabled:
            return None
        return cls(
            run_id=instr.run_id,
            parent_span_id=instr.current_span_id(),
            events_dir=instr.trace_dir,
        )


@dataclass
class ParallelStats:
    """What one :func:`execute_cells` call did."""

    planned: int = 0
    executed: int = 0
    skipped: int = 0
    jobs: int = 1
    retried: int = 0
    failed: int = 0
    failures: FailureReport = field(default_factory=FailureReport)


#: Per-worker-process state: the shared runner (so graphs and
#: permutations memoize across the cells one worker handles), the
#: injectable clock for deterministic-timing runs, and the per-cell
#: wall-clock timeout.
_WORKER: Dict[str, object] = {}


def _init_worker(
    config: RunnerConfig,
    clock: Optional[Clock],
    cell_timeout: Optional[float] = None,
    trace: Optional[TraceContext] = None,
) -> None:
    _WORKER["runner"] = config.make_runner()
    _WORKER["clock"] = clock
    _WORKER["timeout"] = cell_timeout
    _WORKER["trace"] = trace


def _execute_one(runner: ExperimentRunner, cell: Cell) -> None:
    if cell.kind == METRICS:
        runner.matrix_metrics(cell.matrix)
    else:
        runner.run(
            cell.matrix,
            cell.technique,
            kernel=cell.kernel,
            policy=cell.policy,
            mask=cell.mask,
        )


def _attempt_cell(
    runner: ExperimentRunner, cell: Cell, cell_timeout: Optional[float]
) -> None:
    """One attempt at one cell: the fault site runs inside the deadline
    so injected delays can exercise the timeout path.

    The whole attempt runs under a ``cell`` span — the per-cell
    wall-time histogram and the unit of the stitched trace.  This is
    the single site both the in-process (``jobs=1``) and pool paths go
    through, so their telemetry shapes agree.
    """
    label = cell.label()
    with get_obs().span("cell", cell=label):
        with cell_deadline(cell_timeout, label):
            fault_point("cell.execute", label=label)
            _execute_one(runner, cell)


class _CellFailure(Exception):
    """Pickles a failing cell's identity across the process boundary."""

    def __init__(
        self,
        label: str,
        detail: str,
        error_type: str = "",
        transient: bool = False,
        tb: str = "",
    ):
        super().__init__(label, detail, error_type, transient, tb)
        self.label = label
        self.detail = detail
        self.error_type = error_type
        self.transient = transient
        self.tb = tb


def _group_key(cell: Cell) -> Tuple[str, str]:
    # Cells sharing (matrix, technique) share the expensive in-process
    # reorder memo; metrics cells (technique == "") group per matrix.
    return (cell.matrix, cell.technique)


def _group_cells(cells: List[Cell]) -> List[Tuple[Cell, ...]]:
    groups: Dict[Tuple[str, str], List[Cell]] = {}
    for cell in cells:
        groups.setdefault(_group_key(cell), []).append(cell)
    return [tuple(group) for group in groups.values()]


def _run_group(
    cells: Tuple[Cell, ...],
) -> Tuple[List[str], Dict[str, Dict[str, object]], Dict[str, Tuple[int, float]]]:
    """Worker entry point: simulate one cell group into the shared memo.

    Returns the completed cell labels plus the full counter snapshot
    (counters, gauges, histograms) and span-total deltas the group
    caused, measured by a fresh per-group instrumentation.  When a
    :class:`TraceContext` was inherited, that instrumentation shares
    the parent's ``run_id``, roots its spans under the parent's span
    id, and appends events to ``events-w<pid>.jsonl`` in the run
    directory — one logical trace across processes.  A failing cell
    raises :class:`_CellFailure` carrying its label and transient
    classification; on a retried group the already-memoized cells
    replay as cache hits.
    """
    runner: ExperimentRunner = _WORKER["runner"]  # type: ignore[assignment]
    timeout: Optional[float] = _WORKER.get("timeout")  # type: ignore[assignment]
    trace: Optional[TraceContext] = _WORKER.get("trace")  # type: ignore[assignment]
    sink = None
    if trace is not None and trace.events_dir:
        sink = JsonlSink(
            path=os.path.join(trace.events_dir, f"events-w{os.getpid()}.jsonl")
        )
    instr = Instrumentation(
        sink=sink,
        clock=_WORKER.get("clock"),  # type: ignore[arg-type]
        enabled=True,
        run_id=trace.run_id if trace is not None else None,
        parent_span_id=trace.parent_span_id if trace is not None else None,
    )
    instr.gauge("parallel.group_cells", len(cells))
    done: List[str] = []
    try:
        with using(instr):
            for cell in cells:
                try:
                    _attempt_cell(runner, cell, timeout)
                except Exception as exc:
                    raise _CellFailure(
                        cell.label(),
                        str(exc),
                        error_type=type(exc).__name__,
                        transient=is_transient(exc),
                        tb=traceback.format_exc(),
                    ) from exc
                # One attempt per cell in pool mode (retries resubmit
                # the group), mirroring the jobs=1 path's histogram.
                instr.observe("cell.attempts", 1)
                done.append(cell.label())
    finally:
        instr.close()
    snapshot = instr.counters.snapshot()
    spans = {
        name: (total.calls, total.seconds)
        for name, total in instr.span_totals().items()
    }
    return done, snapshot, spans


def _cell_memo_path(runner: ExperimentRunner, cell: Cell) -> str:
    if cell.kind == METRICS:
        return runner.metrics_cache_path(cell.matrix)
    return runner.run_cache_path(
        cell.matrix, cell.technique, cell.kernel, cell.policy, cell.mask
    )


def _run_cell_with_retry(
    runner: ExperimentRunner,
    cell: Cell,
    retry: RetryPolicy,
    cell_timeout: Optional[float],
    sleep: Callable[[float], None],
) -> Optional[CellFailure]:
    """In-process retry loop; ``None`` on success, else the failure."""
    obs = get_obs()
    label = cell.label()
    for attempt in range(1, retry.max_attempts + 1):
        try:
            _attempt_cell(runner, cell, cell_timeout)
            obs.observe("cell.attempts", attempt)
            return None
        except Exception as exc:
            transient = is_transient(exc)
            if transient and attempt < retry.max_attempts:
                obs.counter("resilience.retries")
                logger.warning(
                    "cell %s failed transiently (%s: %s); retrying (%d/%d)",
                    label,
                    type(exc).__name__,
                    exc,
                    attempt,
                    retry.max_attempts - 1,
                )
                sleep(retry.delay(attempt))
                continue
            return CellFailure(
                label=label,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempt,
                transient=transient,
                traceback=traceback.format_exc(),
            )
    raise AssertionError("unreachable")  # pragma: no cover


def execute_cells(
    cells: List[Cell],
    config: RunnerConfig,
    jobs: int,
    worker_clock: Optional[Clock] = None,
    progress: Optional[ProgressReporter] = None,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
    manifest: Optional[SweepManifest] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ParallelStats:
    """Precompute ``cells`` into the shared memo with ``jobs`` workers.

    ``jobs <= 1`` executes in-process (no pool, no spawning) — the same
    code path a sequential driver run would take.  ``worker_clock``
    injects a deterministic clock into the workers (tests use a
    zero-tick :class:`~repro.obs.FakeClock` so timing fields memoize
    byte-identically across process counts).

    Failure handling: transient failures retry up to
    ``retry.max_attempts`` total attempts (default: 1, i.e. no
    retries); a permanent failure raises :class:`SweepFailure` naming
    the cell — or, with ``keep_going=True``, is recorded in
    ``stats.failures`` while the rest of the sweep completes.  Either
    way no cell is ever silently dropped.  ``manifest`` checkpoints
    completed cell labels for ``--resume``; ``sleep`` is injectable so
    tests assert backoff without waiting.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    retry = retry if retry is not None else RetryPolicy()
    cells = dedupe_cells(cells)
    obs = get_obs()
    runner = config.make_runner()
    stats = ParallelStats(planned=len(cells), jobs=jobs)

    if not config.use_cache:
        # Workers could not share results through the memo; running the
        # pool would simulate everything and throw it away.
        logger.warning(
            "parallel precompute skipped: memoization is disabled "
            "(use_cache=False), cells will compute in-process on demand"
        )
        return stats

    pending = []
    already_done: List[str] = []
    for cell in cells:
        label = cell.label()
        if manifest is not None and label in manifest.completed_cells:
            stats.skipped += 1
            obs.counter("resilience.cells_resumed")
        elif os.path.exists(_cell_memo_path(runner, cell)):
            stats.skipped += 1
            already_done.append(label)
        else:
            pending.append(cell)
    if manifest is not None and already_done:
        manifest.mark_cells(already_done)
    obs.counter("parallel.cells.planned", stats.planned)
    obs.counter("parallel.cells.skipped", stats.skipped)
    if not pending:
        return stats

    if jobs == 1:
        with using(Instrumentation(clock=worker_clock, enabled=True)) as instr:
            for cell in pending:
                failure = _run_cell_with_retry(
                    runner, cell, retry, cell_timeout, sleep
                )
                if failure is not None:
                    stats.failed += 1
                    stats.failures.add(failure)
                    get_obs().counter("resilience.cells_failed")
                    logger.error(
                        "cell %s failed permanently: %s: %s",
                        failure.label,
                        failure.error_type,
                        failure.message,
                    )
                    if not keep_going:
                        break
                    continue
                stats.executed += 1
                if manifest is not None:
                    manifest.mark_cell(cell.label())
                if progress is not None:
                    progress.update(cell.label())
        obs.merge_counter_snapshot(instr.counters.snapshot())
        obs.merge_span_totals(
            {n: (t.calls, t.seconds) for n, t in instr.span_totals().items()}
        )
        obs.counter("parallel.cells.executed", stats.executed)
        _finish(stats, keep_going, manifest)
        return stats

    _execute_pool(
        pending,
        config,
        jobs,
        worker_clock,
        progress,
        retry,
        cell_timeout,
        keep_going,
        manifest,
        sleep,
        stats,
    )
    obs.counter("parallel.cells.executed", stats.executed)
    _finish(stats, keep_going, manifest)
    return stats


def _finish(
    stats: ParallelStats, keep_going: bool, manifest: Optional[SweepManifest]
) -> None:
    """Common sweep epilogue: persist failures, then raise or summarize."""
    if not stats.failures:
        return
    if manifest is not None:
        manifest.record_failures(stats.failures)
    if not keep_going:
        first = stats.failures.failures[0]
        raise SweepFailure(
            f"worker failed on cell {first.label}: "
            f"{first.error_type}: {first.message}",
            report=stats.failures,
        )
    logger.error("%s", stats.failures.summary_text())


def _execute_pool(
    pending: List[Cell],
    config: RunnerConfig,
    jobs: int,
    worker_clock: Optional[Clock],
    progress: Optional[ProgressReporter],
    retry: RetryPolicy,
    cell_timeout: Optional[float],
    keep_going: bool,
    manifest: Optional[SweepManifest],
    sleep: Callable[[float], None],
    stats: ParallelStats,
) -> None:
    """Pool execution in retry rounds: a broken pool is rebuilt, failed
    groups re-enter the next round until their attempt budget runs out."""
    obs = get_obs()
    trace = TraceContext.from_obs(obs)
    context = multiprocessing.get_context("spawn")
    remaining = _group_cells(pending)
    attempts: Dict[Tuple[Cell, ...], int] = {group: 0 for group in remaining}
    completed: set = set()
    round_no = 0

    logger.info(
        "parallel precompute: %d cells in %d groups "
        "(%d already memoized) on up to %d workers",
        len(pending),
        len(remaining),
        stats.skipped,
        min(jobs, len(remaining)),
    )

    while remaining:
        round_no += 1
        if round_no > 1:
            # Back off before a retry round (attempt count is per
            # group, but one shared pause per round keeps it simple and
            # injectable).
            sleep(retry.delay(round_no - 1))
        round_groups = remaining
        remaining = []
        abort = False
        # Spawned workers re-import repro; keep the pool no wider than
        # the work list so tiny sweeps don't pay for idle interpreters.
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(round_groups)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(config, worker_clock, cell_timeout, trace),
        ) as pool:
            futures = {
                pool.submit(_run_group, group): group for group in round_groups
            }
            for future in as_completed(futures):
                group = futures[future]
                try:
                    done, snapshot, spans = future.result()
                except BaseException as exc:
                    requeue = _handle_group_failure(
                        group, exc, attempts, retry, keep_going, stats, config
                    )
                    if requeue is None:
                        abort = True
                        for other in futures:
                            other.cancel()
                        break
                    remaining.extend(requeue)
                    continue
                obs.merge_counter_snapshot(snapshot)
                obs.merge_span_totals(spans)
                fresh = [label for label in done if label not in completed]
                completed.update(fresh)
                stats.executed += len(fresh)
                if manifest is not None:
                    manifest.mark_cells(fresh)
                if progress is not None:
                    for label in fresh:
                        progress.update(label)
        if abort:
            return


def _handle_group_failure(
    group: Tuple[Cell, ...],
    exc: BaseException,
    attempts: Dict[Tuple[Cell, ...], int],
    retry: RetryPolicy,
    keep_going: bool,
    stats: ParallelStats,
    config: RunnerConfig,
) -> Optional[List[Tuple[Cell, ...]]]:
    """Classify one failed group; return groups to requeue, or ``None``
    to abort the sweep (strict mode, permanent failure recorded)."""
    obs = get_obs()
    attempts[group] = attempts.get(group, 0) + 1
    if isinstance(exc, _CellFailure):
        transient = exc.transient
        label = exc.label
        error_type = exc.error_type
        message = exc.detail
        tb = exc.tb
    else:
        # The worker died (BrokenProcessPool), was cancelled alongside
        # a broken pool, or hit an unpicklable error: we cannot know
        # which cell was at fault, so the whole group is retried.
        transient = True
        label = group[0].label()
        error_type = type(exc).__name__
        message = f"{error_type}: {exc} (worker died or pool broke)"
        tb = ""

    if transient and attempts[group] < retry.max_attempts:
        obs.counter("resilience.retries")
        stats.retried += 1
        logger.warning(
            "group %s failed transiently (%s); retry %d/%d",
            label,
            message,
            attempts[group],
            retry.max_attempts - 1,
        )
        return [group]

    failure = CellFailure(
        label=label,
        error_type=error_type,
        message=message,
        attempts=attempts[group],
        transient=transient,
        traceback=tb,
    )
    stats.failures.add(failure)
    stats.failed += 1
    obs.counter("resilience.cells_failed")
    if not keep_going:
        return None

    if isinstance(exc, _CellFailure):
        # The failing cell is known: give the rest of the group (fresh
        # attempt budget) another chance — each resubmission excludes
        # one more permanently-failed cell, so this always terminates.
        rest = tuple(cell for cell in group if cell.label() != exc.label)
        if rest:
            attempts.setdefault(rest, 0)
            return [rest]
        return []
    # Unknown failing cell with the budget exhausted: record every cell
    # of the group that never reached the memo, so none vanish silently.
    runner = config.make_runner()
    for cell in group:
        if cell.label() == label:
            continue
        if not os.path.exists(_cell_memo_path(runner, cell)):
            stats.failures.add(
                CellFailure(
                    label=cell.label(),
                    error_type=error_type,
                    message=f"group aborted: {message}",
                    attempts=attempts[group],
                    transient=transient,
                    traceback="",
                )
            )
            stats.failed += 1
            obs.counter("resilience.cells_failed")
    return []


def precompute(
    drivers: Mapping[str, Callable[..., object]],
    runner: ExperimentRunner,
    jobs: int,
    worker_clock: Optional[Clock] = None,
    progress: Optional[ProgressReporter] = None,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
    manifest: Optional[SweepManifest] = None,
) -> ParallelStats:
    """Plan every driver's cells and execute them with ``jobs`` workers.

    After this returns, running the drivers against ``runner`` (or any
    runner sharing its memo directory) replays the sweep as memo hits.
    """
    cells = plan_cells(drivers, runner.profile)
    stats = execute_cells(
        cells,
        RunnerConfig.from_runner(runner),
        jobs,
        worker_clock=worker_clock,
        progress=progress,
        retry=retry,
        cell_timeout=cell_timeout,
        keep_going=keep_going,
        manifest=manifest,
    )
    logger.info(
        "parallel precompute done: %d executed, %d already memoized, "
        "%d retried, %d failed, %d planned",
        stats.executed,
        stats.skipped,
        stats.retried,
        stats.failed,
        stats.planned,
    )
    return stats
