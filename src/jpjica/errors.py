"""Exception and warning types raised across the toolkit."""


class JpjicaError(Exception):
    """Base class for all toolkit errors."""


class EmptyInput(JpjicaError):
    """No subjects / no data supplied."""


class NonFiniteData(JpjicaError):
    """NaN or Inf encountered where finite values are required."""


class MismatchedVoxelCount(JpjicaError):
    """Subjects do not share a common sample (voxel) count."""


class DegenerateSampleCount(JpjicaError):
    """Too few samples to form the requested statistic."""


class OrderExceedsRank(JpjicaError):
    """Requested model order exceeds the rank of the data."""


class InsufficientSamples(JpjicaError):
    """A statistical test needs more observations per group."""


class InvalidQ(JpjicaError):
    """False-discovery-rate level must lie in (0, 1)."""


class PartnerLengthMismatch(JpjicaError):
    """Partner source rows do not match the data sample count."""


class ZeroSource(JpjicaError):
    """A source estimate with (near-)zero norm where nonzero is required."""


class RankDeficientMixing(JpjicaError):
    """Simulated mixing matrix failed the conditioning bound twice."""


class InvalidScenario(JpjicaError):
    """Simulation scenario violates a structural constraint."""


class DegenerateCorrelation(JpjicaError):
    """Correlation undefined (zero variance) where it is required."""


class ConvergenceWarning(UserWarning):
    """Inner extraction hit its iteration cap before the stopping rule."""


class CountMismatchWarning(UserWarning):
    """Estimated and reference source counts differ; extra rows ignored."""


class SingleSubjectWarning(UserWarning):
    """Single-subject input: decomposition degrades to plain single-set ICA."""
