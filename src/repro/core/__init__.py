"""The paper's contribution: PWM mixed-signal perceptron building blocks.

The fidelity ladder (see DESIGN.md §5):

* ``engine="behavioral"`` — paper Eq. 2 in closed form,
* ``engine="rc"`` — exact event-driven switch-level steady state,
* ``engine="spice"`` — full transistor-level shooting PSS.
"""

from .._lazy import lazy_package

#: Each export's submodule.  Names load on first access, so the
#: behavioural serving path loads no transistor-level builders.
_LAZY = {name: module for module, names in {
    "behavioral": ("BehavioralAdder", "CalibrationModel", "eq2_output",
                   "fit_calibration"),
    "cells": ("NO_LOAD_ROUT", "CellDesign", "and_cell_subckt",
              "build_transcoding_inverter_bench", "inverter_subckt",
              "nand2_subckt", "transcoding_inverter_subckt"),
    "comparator": ("AbsoluteComparator", "DifferentialComparator",
                   "RatiometricComparator"),
    "comparator_circuit": ("ComparatorDesign", "build_comparator_bench",
                           "comparator_subckt", "reference_divider_subckt"),
    "design_space": ("CellOperatingPoint", "CoutAblationPoint",
                     "RoutAblationPoint", "cell_transfer_curve",
                     "cout_ablation", "recommend_cout", "recommend_rout",
                     "rout_ablation"),
    "encoding": ("bits_to_weight", "check_duties", "check_weights",
                 "max_weight", "quantize_signed_weight", "quantize_weight",
                 "split_signed_weight", "weight_to_bits"),
    "full_perceptron": ("FullPerceptronResult",
                        "build_full_perceptron_circuit",
                        "evaluate_full_perceptron",
                        "evaluate_full_perceptrons"),
    "network": ("PwmHiddenLayer", "PwmMlp"),
    "perceptron": ("DifferentialPwmPerceptron", "PerceptronDecision",
                   "PwmPerceptron"),
    "rc_model": ("RcLeg", "RcSolution", "RcSwitchSolver"),
    "reencoder": ("RampReencoder", "ReencoderDesign", "reencode_ratiometric"),
    "training": ("PerceptronTrainer", "TrainingRecord", "TrainingResult",
                 "reference_feedback_step"),
    "weighted_adder": ("ENGINES", "AdderConfig", "AdderResult",
                       "WeightedAdder"),
}.items() for name in names}

__all__ = list(_LAZY)

lazy_package(__name__)
