"""End-to-end pipeline: moments, weights, expectations, ranking.

Executes moments -> relative variance -> {entropy -> ICW | KLD -> IGHW |
entropy -> IGD -> IGDW} -> expected utility -> rank for each requested
method. A failure inside one method is recorded in the report without
aborting the others; only input validation is fatal.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InvalidSpec, PriorRequired, UtilrankError
from .io_files import digest_prior, digest_sample_set
from .model import EngineConfig, PriorProfile, SampleSet, WeightMethod
from .moments import compute_moments
from .ranking import rank_alternatives
from .report import Provenance, Report
from .weighting import entropy, icw, igd, igdw, ighw, kld, relative_variance

ALL_METHODS = (WeightMethod.ICW, WeightMethod.IGHW, WeightMethod.IGDW)


def resolve_methods(
    methods: Iterable[WeightMethod | str] | None, have_prior: bool
) -> tuple[WeightMethod, ...]:
    """Normalize a method selection; default to every runnable method."""
    if methods is None:
        return ALL_METHODS if have_prior else (WeightMethod.ICW, WeightMethod.IGDW)
    resolved = []
    for m in methods:
        try:
            method = m if isinstance(m, WeightMethod) else WeightMethod(str(m).upper())
        except ValueError:
            raise InvalidSpec(f"unknown method {m!r}; use icw, ighw or igdw") from None
        if method not in resolved:
            resolved.append(method)
    return tuple(resolved)


def run_pipeline(
    sample_set: SampleSet,
    prior: Optional[PriorProfile] = None,
    config: Optional[EngineConfig] = None,
    methods: Iterable[WeightMethod | str] | None = None,
    include_rankings: bool = True,
    provenance: Optional[Provenance] = None,
) -> Report:
    """Run the full weighting and ranking pipeline on validated inputs.

    Requesting IGHW without a prior raises :class:`PriorRequired` before
    any computation. Per-method failures (degenerate data, zero prior
    support, negative gain differences, ...) are recorded in
    ``report.failures`` and the remaining methods still run.
    """
    config = config or EngineConfig()
    selected = resolve_methods(methods, prior is not None)
    if WeightMethod.IGHW in selected and prior is None:
        raise PriorRequired("IGHW needs a prior profile")

    moments = compute_moments(sample_set)
    if provenance is None:
        provenance = Provenance(
            samples_sha256=digest_sample_set(sample_set),
            prior_sha256=digest_prior(prior) if prior is not None else None,
        )

    weights: dict[WeightMethod, object] = {}
    rankings: dict[WeightMethod, object] = {}
    failures: dict[WeightMethod, str] = {}
    profile = entropies = divergences = igd_vector = igd_resolution = None

    if selected:
        try:
            profile = relative_variance(moments, config)
        except UtilrankError as exc:
            for method in selected:
                failures[method] = _describe(exc)

    if profile is not None:
        needs_entropy = {WeightMethod.ICW, WeightMethod.IGDW} & set(selected)
        if needs_entropy:
            entropies = entropy(profile, config.entropy_log_base)

        for method in selected:
            try:
                if method is WeightMethod.ICW:
                    wv = icw(entropies)
                elif method is WeightMethod.IGHW:
                    divergences = kld(profile, prior, config)
                    wv = ighw(divergences)
                else:
                    igd_vector, igd_resolution = igd(entropies, config)
                    wv = igdw(igd_vector)
            except UtilrankError as exc:
                failures[method] = _describe(exc)
                continue
            weights[method] = wv
            if include_rankings:
                rankings[method] = rank_alternatives(moments, wv, config.report_weight_rounding)

    return Report(
        moments=moments,
        relative_variance=profile,
        entropies=entropies,
        divergences=divergences,
        igd=igd_vector,
        igd_resolution=igd_resolution,
        weights=weights,
        rankings=rankings,
        failures=failures,
        config=config,
        provenance=provenance,
    )


def _describe(exc: UtilrankError) -> str:
    return f"{type(exc).__name__}: {exc}"
