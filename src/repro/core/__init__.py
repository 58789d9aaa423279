"""The paper's contribution: PWM mixed-signal perceptron building blocks.

The fidelity ladder (see DESIGN.md §5):

* ``engine="behavioral"`` — paper Eq. 2 in closed form,
* ``engine="rc"`` — exact event-driven switch-level steady state,
* ``engine="spice"`` — full transistor-level shooting PSS.
"""

from .behavioral import (
    BehavioralAdder,
    CalibrationModel,
    eq2_output,
    fit_calibration,
)
from .cells import (
    NO_LOAD_ROUT,
    CellDesign,
    and_cell_subckt,
    build_transcoding_inverter_bench,
    inverter_subckt,
    nand2_subckt,
    transcoding_inverter_subckt,
)
from .comparator import (
    AbsoluteComparator,
    DifferentialComparator,
    RatiometricComparator,
)
from .comparator_circuit import (
    ComparatorDesign,
    build_comparator_bench,
    comparator_subckt,
    reference_divider_subckt,
)
from .full_perceptron import (
    FullPerceptronResult,
    build_full_perceptron_circuit,
    evaluate_full_perceptron,
    evaluate_full_perceptrons,
)
from .design_space import (
    CellOperatingPoint,
    CoutAblationPoint,
    RoutAblationPoint,
    cell_transfer_curve,
    cout_ablation,
    recommend_cout,
    recommend_rout,
    rout_ablation,
)
from .encoding import (
    bits_to_weight,
    check_duties,
    check_weights,
    max_weight,
    quantize_signed_weight,
    quantize_weight,
    split_signed_weight,
    weight_to_bits,
)
from .network import PwmHiddenLayer, PwmMlp
from .perceptron import (
    DifferentialPwmPerceptron,
    PerceptronDecision,
    PwmPerceptron,
)
from .rc_model import RcLeg, RcSolution, RcSwitchSolver
from .reencoder import RampReencoder, ReencoderDesign, reencode_ratiometric
from .training import (
    PerceptronTrainer,
    TrainingRecord,
    TrainingResult,
    reference_feedback_step,
)
from .weighted_adder import ENGINES, AdderConfig, AdderResult, WeightedAdder

__all__ = [
    # adder + engines
    "WeightedAdder", "AdderConfig", "AdderResult", "ENGINES",
    "BehavioralAdder", "eq2_output", "CalibrationModel", "fit_calibration",
    "RcLeg", "RcSolution", "RcSwitchSolver",
    # cells
    "CellDesign", "inverter_subckt", "nand2_subckt",
    "transcoding_inverter_subckt", "and_cell_subckt",
    "build_transcoding_inverter_bench", "NO_LOAD_ROUT",
    # encoding
    "max_weight", "weight_to_bits", "bits_to_weight", "check_weights",
    "check_duties", "quantize_weight", "quantize_signed_weight",
    "split_signed_weight",
    # perceptron
    "PwmPerceptron", "DifferentialPwmPerceptron", "PerceptronDecision",
    "RatiometricComparator", "AbsoluteComparator", "DifferentialComparator",
    "ComparatorDesign", "comparator_subckt", "reference_divider_subckt",
    "build_comparator_bench", "build_full_perceptron_circuit",
    "evaluate_full_perceptron", "evaluate_full_perceptrons",
    "FullPerceptronResult",
    # training / networks
    "RampReencoder", "ReencoderDesign", "reencode_ratiometric",
    "PerceptronTrainer", "TrainingResult", "TrainingRecord",
    "reference_feedback_step", "PwmMlp", "PwmHiddenLayer",
    # design space
    "CellOperatingPoint", "rout_ablation", "cout_ablation",
    "RoutAblationPoint", "CoutAblationPoint", "recommend_rout",
    "recommend_cout", "cell_transfer_curve",
]
