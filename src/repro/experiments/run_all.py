"""Run every experiment driver and collect the reports."""

from __future__ import annotations

import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError, SweepFailure
from repro.resilience import CellFailure, FailureReport, RetryPolicy, is_transient
from repro.experiments import (
    correlations,
    corpus_report,
    fig2,
    fig3,
    fig4,
    fig6,
    fig7,
    fig8,
    fig9,
    hierarchy_ablation,
    schedule_ablation,
    sensitivity,
    spgemm,
    table1,
    table2,
    table3,
    table4,
    tiling,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentRunner
from repro.obs import ProgressReporter, format_span_totals, get_obs, logger
from repro.parallel import driver_plan, plan_cells, precompute

DRIVERS: Dict[str, Callable[..., ExperimentReport]] = {
    "table1": table1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "sec5-correlations": correlations.run,
    "table2": table2.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "table3": table3.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "table4": table4.run,
}

#: Extensions beyond the paper (DESIGN.md Section 7); runnable by name
#: but excluded from :func:`run_all`'s paper-artifact sweep.
ABLATIONS: Dict[str, Callable[..., ExperimentReport]] = {
    "corpus-report": corpus_report.run,
    "ablation-cache-sensitivity": sensitivity.run,
    "ablation-schedule": schedule_ablation.run,
    "ablation-hierarchy": hierarchy_ablation.run,
    "ablation-tiling": tiling.run,
    "spgemm-sweep": spgemm.run,
}


def _driver(name: str) -> Callable[..., ExperimentReport]:
    try:
        return DRIVERS.get(name) or ABLATIONS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {sorted(DRIVERS) + sorted(ABLATIONS)}"
        ) from None


def run_experiment(
    name: str, profile: str = "full", runner: Optional[ExperimentRunner] = None
) -> ExperimentReport:
    driver = _driver(name)
    obs = get_obs()
    logger.info("experiment %s: starting (profile=%s)", name, profile)
    with obs.span(f"experiment.{name}", profile=profile) as span:
        if name == "table1":
            report = driver(profile=profile)
        else:
            report = driver(profile=profile, runner=runner)
    if span is not None:
        logger.info("experiment %s: done in %.3fs", name, span.seconds)
    return report


def run_all(
    profile: str = "full",
    progress: Optional[ProgressReporter] = None,
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
    names: Optional[Sequence[str]] = None,
    on_report: Optional[Callable[[ExperimentReport], None]] = None,
    failures: Optional[FailureReport] = None,
) -> List[ExperimentReport]:
    """Run drivers in order, sharing one runner (and its caches).

    ``names`` picks the drivers (ablations included); the default is
    every paper-artifact driver.  ``on_report`` sees each report as
    soon as its driver finishes.  Pass a :class:`ProgressReporter` to
    get per-driver progress lines (plus per-cell lines while
    precomputing); ``None`` keeps the sweep silent (the library
    default).

    ``jobs > 1`` first precomputes every driver's pipeline cells in
    that many worker processes sharing the on-disk memo (see
    :mod:`repro.parallel`), then runs the drivers in-process as memo
    hits; ``jobs=1`` is exactly the historical sequential path.  Either
    way a rerun of a killed sweep recomputes only the cells whose memo
    entry is missing.

    Resilience: ``retry`` and ``cell_timeout`` govern the precompute
    phase (see :func:`repro.parallel.execute_cells`).  With
    ``keep_going=True`` a failing driver is recorded in a
    :class:`FailureReport` (logged loudly at the end) instead of
    aborting the remaining drivers, and the partial report list is
    returned; otherwise the first failure propagates.  Either way every
    permanent failure is added to ``failures`` when one is passed, so
    the caller can persist it (the CLI writes it to the run ledger).
    """
    names = list(DRIVERS) if names is None else list(names)
    drivers = {name: _driver(name) for name in names}
    failures = failures if failures is not None else FailureReport()
    runner = ExperimentRunner(profile)
    pending_cell_failures = {}
    if jobs > 1:
        n_cells = len(plan_cells(drivers, profile))
        cell_progress = ProgressReporter(
            n_cells, label="precompute", enabled=progress is not None and n_cells > 0
        )
        try:
            stats = precompute(
                drivers,
                runner,
                jobs,
                progress=cell_progress,
                retry=retry,
                cell_timeout=cell_timeout,
                keep_going=keep_going,
            )
        except SweepFailure as exc:
            for failure in exc.report or ():
                failures.add(failure)
            raise
        cell_progress.finish()
        # Provisional: the in-process driver replay recomputes any
        # missing cell, so a precompute failure only sticks if the
        # driver that needs the cell fails too.
        if stats is not None:
            pending_cell_failures = {f.label: f for f in stats.failures}
    reports = []
    for name in names:
        try:
            report = run_experiment(name, profile=profile, runner=runner)
        except Exception as exc:
            get_obs().counter("resilience.drivers_failed")
            failures.add(
                CellFailure(
                    label=f"driver:{name}",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=1,
                    transient=is_transient(exc),
                    traceback=traceback.format_exc(),
                )
            )
            if not keep_going:
                raise
            logger.error("driver %s failed (continuing): %s", name, exc)
        else:
            reports.append(report)
            if pending_cell_failures:
                for cell in driver_plan(drivers[name], profile):
                    pending_cell_failures.pop(cell.label(), None)
            if on_report is not None:
                on_report(report)
        if progress is not None:
            progress.update(name)
    if progress is not None:
        progress.finish()
    for failure in pending_cell_failures.values():
        failures.add(failure)
    if failures:
        logger.error("%s", failures.summary_text())
    return reports


def timing_summary() -> str:
    """Where the time went: span totals from the active instrumentation.

    Returns an aligned stage/calls/seconds/share table; nested spans
    (``experiment.*`` wraps the per-stage spans) overlap, so the share
    column is per-row against the largest span, not additive.
    """
    return format_span_totals(get_obs().span_totals())
