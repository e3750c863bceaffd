"""Fuzzy sets, possibility measures, Sugeno integration, and a toy
possibilistic qubit simulator.

The package treats vagueness as a first-class alternative to chance:
densities can be read additively (integrate) or possibilistically
(rescale to sup 1 and take suprema), and a one- or two-qubit
``Register`` fuzzifies to a ``FiniteFuzzySet`` over its basis labels,
which the measures and Sugeno integrals read like any other finite set
and which collapses by argmax instead of sampling.  Everything is
immutable and operations are pure; randomness only enters
``born_sample`` paths and is seeded per call.

The names imported below are the public API.
"""

from .formats import (
    read_fuzzy_set,
    read_grade_table,
    read_grid_csv,
    read_table_measure,
    write_fuzzy_set,
    write_grade_table,
    write_grid_csv,
    write_sweep_csv,
    write_table_measure,
)
from .fuzzy import (
    FiniteFuzzySet,
    GridFunction,
    TNormKind,
    as_grade,
    fuzzy_complement,
    fuzzy_intersection,
    fuzzy_union,
    height,
    is_normalized,
)
from .integrals import (
    AlphaCut,
    alpha_cut,
    grid_tolerance,
    sugeno_integral,
)
from .intervals import IntervalSet, union_all
from .language import (
    FuzzyLanguage,
    language_complement,
    language_from_table,
    language_intersection,
    language_union,
    zeros_then_ones_grade,
    zeros_then_ones_language,
)
from .localize import (
    LocalizationReport,
    WavefunctionSpec,
    localization_sweep,
    localize,
    realize_density,
)
from .measures import (
    AdditiveMeasure,
    MeasureSpec,
    PossibilityMeasure,
    TableMeasure,
    check_additivity,
    check_possibility_union_axiom,
    measure_of,
)
from .qubits import (
    Register,
    amplitude_determinant,
    apply_gates,
    apply_hadamard,
    apply_pauli_x,
    apply_pauli_z,
    apply_unitary,
    bell_state,
    born_compatible,
    born_sample_many,
    defuzzify,
    fuzzify,
    is_entangled,
    ket0,
    ket1,
    parse_state_literal,
    tensor_product,
)

__version__ = "0.1.0"
