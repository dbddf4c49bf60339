"""Impedance-based modal analysis and sensitivity tuning of electrical networks."""

from .rational import Polynomial, RationalFunction, RationalMatrix
from .network import (
    Branch,
    IncidencePattern,
    ModelDataError,
    NetworkModel,
    Node,
    RationalBlock,
    SeriesRL,
    Shunt,
    ShuntCapacitor,
    ShuntRLC,
    SpectrumRef,
    admittance_block,
    build_ynodal,
    build_ysys,
    build_zsys,
    incidence_pattern,
    param_derivative,
)
from .modes import (
    Mode,
    find_modes,
    gamma_shift,
    mode_artifacts,
    residue_by_limit,
)
from .sensitivity import (
    ParamSensitivity,
    SensitivityFactor,
    SensitivityMatrices,
    admittance_sensitivity_factor,
    parameter_sensitivity_factor,
    predict_tuning,
    prediction_error,
    sensitivity_matrices,
)
from .greybox import GreyboxReport, mode_report
from .vectorfit import (
    PoleResidueModel,
    SpectrumSamples,
    fit,
    sensitivities_from_fit,
)
from .statespace import (
    StateSpace,
    build_state_space,
    finite_difference_dlambda,
    random_rlc_network,
)

__version__ = "0.1.0"
