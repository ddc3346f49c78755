"""Privacy attacks against LDP multidimensional collection (the paper's core)."""

from .attribute_inference import (
    AttributeInferenceAttack,
    AttributeInferenceResult,
    default_classifier_factory,
)
from .baselines import (
    empirical_random_attribute_guess,
    empirical_random_reidentification,
    random_attribute_baseline,
    random_reidentification_baseline,
    random_value_baseline,
)
from .plausible_deniability import (
    expected_profiling_accuracy,
    expected_single_report_accuracy,
    profiling_accuracy_curve,
    single_report_attack_accuracy,
)
from .profile import (
    UNKNOWN,
    DeltaRecorder,
    ProfilingResult,
    Survey,
    SurveyDelta,
    build_profiles_rsfd,
    build_profiles_smp,
    plan_surveys,
)
from .reidentification import (
    ReidentificationAttack,
    ReidentificationResult,
    count_topk_hits,
    match_distances,
    top_k_candidates,
)

__all__ = [
    "single_report_attack_accuracy",
    "expected_single_report_accuracy",
    "expected_profiling_accuracy",
    "profiling_accuracy_curve",
    "Survey",
    "SurveyDelta",
    "DeltaRecorder",
    "plan_surveys",
    "ProfilingResult",
    "UNKNOWN",
    "build_profiles_smp",
    "build_profiles_rsfd",
    "ReidentificationAttack",
    "ReidentificationResult",
    "count_topk_hits",
    "match_distances",
    "top_k_candidates",
    "AttributeInferenceAttack",
    "AttributeInferenceResult",
    "default_classifier_factory",
    "random_value_baseline",
    "random_attribute_baseline",
    "random_reidentification_baseline",
    "empirical_random_attribute_guess",
    "empirical_random_reidentification",
]
