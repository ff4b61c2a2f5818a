"""Value-of-evidence computation for the specific-source identification problem.

Given a trace of unknown origin, a control sample from one fixed source,
and samples from a population of alternative sources, this package computes
the Bayes factor comparing the prosecution model (the trace came from the
specific source) against the defense model (it came from some other source
in the population) under two regimes: alternative-population parameters
plugged in as point estimates, or integrated over their posterior.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    DataError,
    DegenerateChainError,
    NotSpdError,
    NumericalError,
    SpecSourceError,
)
from .stats import (  # noqa: F401
    RngStream,
    SpdMatrix,
    compound_logpdf,
    log_mean_exp,
    mvn_logpdf,
    sample_inverse_wishart,
    sample_mvn,
)
from .evidence import (  # noqa: F401
    EvidenceSet,
    Fragment,
    GroupedDataset,
    ScenarioSpec,
    build_scenario,
    load_dataset,
    validate_evidence,
    write_dataset,
)
from .gibbs import (  # noqa: F401
    AlternativePrior,
    DrawSet,
    McmcSettings,
    SpecificPrior,
    effective_sample_size,
    gibbs_alternative,
    gibbs_specific,
    read_draws,
    write_draws,
)
from .evaluate import (  # noqa: F401
    AltPlugInEstimate,
    BayesFactorReport,
    LogDensityEstimate,
    assemble_report,
    closed_form_predictive_known_cov,
    evaluate_scenario,
    log_denominator_full,
    log_denominator_plugin,
    log_numerator,
    plugin_estimates,
)
