"""Exact arithmetic codings of Pisot toral automorphisms.

Core objects: certified Pisot number fields with exact power-basis
arithmetic, greedy beta-expansions with finiteness certification, the
sofic admissibility automaton and its maximal-entropy chain, homoclinic
coding parameters with kernel enumeration, and the associated integral
forms deciding conjugacy to the companion matrix.
"""

from .coding import (
    HomoclinicSpec,
    TorusPoint,
    Window,
    injectivity_experiment,
    is_fundamental,
    kernel_sequences,
    kernel_values,
    phi_eval,
    predicted_preimage_count,
    unit_to_matrix,
    xi_from_integer_coordinate,
)
from .errors import (
    CharPolyMismatch,
    ConvergenceFailure,
    CounterexampleFound,
    NotAUnit,
    NotConjugatePair,
    NotInHomoclinicGroup,
    NotPisot,
    NotUnimodular,
    NotUnit,
    OracleMismatch,
    OrbitCapExceeded,
    OutOfRange,
    PisotCodingError,
    PrecisionCapExceeded,
    Reducible,
    SearchBudgetExceeded,
    ZeroHomoclinicPoint,
)
from .forms import (
    b_matrix,
    build_form_report,
    char_poly_k,
    classify_power_conjugacy,
    companion_matrix,
    conjugacy_certificate,
    conjugation_covariance_check,
    form_eval,
    form_expand,
    nn_sequence,
    search_unimodular,
    spans_lattice,
)
from .numberfield import (
    EQUAL,
    GREATER,
    LESS,
    FieldElement,
    MinimalPolynomial,
    NumberField,
    format_element,
    is_irreducible,
    make_field,
)
from .numeration import (
    DSequence,
    Expansion,
    FinitarityResult,
    WeakFinitaryCertificate,
    add_expansions,
    beta_expand,
    check_finitarity,
    check_weak_finitarity,
    d_sequence,
    enumerate_admissible_words,
    enumerate_z_beta,
    estimate_L1,
    expand_nonneg,
    expansion_value,
    is_admissible,
    is_finite,
    validate_weak_finitarity,
    value_of,
)
from .shift import (
    MarkovChain,
    SoficAutomaton,
    build_automaton,
    max_entropy_chain,
    sample,
    tail_invariance_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
