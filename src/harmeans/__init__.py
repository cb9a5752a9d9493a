"""Serial-dependence-robust two-sample mean tests.

Classical and Welch t-tests alongside their robust counterparts built on
series long-run variance estimators, a dependent wild bootstrap, and a
Monte Carlo lab for size/power experiments.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateReplicatesError,
    DegenerateSampleError,
    DomainError,
    IngestError,
)
from .lrv import (
    KSelection,
    LrvEstimate,
    TimeSeriesSample,
    ar1_plugin,
    ljung_box,
    select_k,
    series_lrv,
)
from .sharwb import BootstrapRun, shar_wb_test
from .statdist import (
    DistKind,
    RefDistribution,
    chisq_sf,
    normal_cdf,
    t_cdf,
    t_quantile,
)
from .ttests import (
    TestReport,
    classical_t,
    har_pooled_t,
    har_welch_t,
    k_adf,
    welch_t,
)

__all__ = [
    "BootstrapRun",
    "DegenerateReplicatesError",
    "DegenerateSampleError",
    "DistKind",
    "DomainError",
    "IngestError",
    "KSelection",
    "LrvEstimate",
    "RefDistribution",
    "TestReport",
    "TimeSeriesSample",
    "ar1_plugin",
    "chisq_sf",
    "classical_t",
    "har_pooled_t",
    "har_welch_t",
    "k_adf",
    "ljung_box",
    "normal_cdf",
    "select_k",
    "series_lrv",
    "shar_wb_test",
    "t_cdf",
    "t_quantile",
    "welch_t",
]
