"""Value-of-evidence computation for the specific-source identification problem.

Given a trace of unknown origin, a control sample from one fixed source,
and samples from a population of alternative sources, this package computes
the Bayes factor comparing the prosecution model (the trace came from the
specific source) against the defense model (it came from some other source
in the population) under two regimes: alternative-population parameters
plugged in as point estimates, or integrated over their posterior.

The API lives in the modules (``stats``, ``evidence``, ``gibbs``,
``evaluate``, ``simulate``, ``config`` and ``cli``), each listing its public
names in ``__all__``; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
