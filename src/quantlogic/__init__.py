"""quantlogic: exact extended-real quantale arithmetic, p-mean quantifiers,
a small predicate language with multiplicative and additive semantics, and
statistics (softmax, entropy, diversity) recovered from those quantifiers.
"""

import types

from .errors import FormulaSyntaxError, QuantLogicError
from .extreal import (
    ADD_CONSTANTS,
    INF,
    MUL_CONSTANTS,
    OpCode,
    add_add,
    add_cotensor,
    add_div,
    add_dual,
    add_hadd,
    add_join,
    add_logical_leq,
    add_meet,
    add_scalar,
    add_tensor,
    check_add,
    check_mul,
    format_value,
    mul_add,
    mul_cotensor,
    mul_div,
    mul_dual,
    mul_hadd,
    mul_join,
    mul_logical_leq,
    mul_meet,
    mul_pow,
    mul_tensor,
    napier,
    napier_inv,
    parse_value,
)
from .spaces import (
    PointMap,
    Space,
    compose,
    counting_space,
    identity_map,
    make_space,
    normalize,
    point_map,
    product_space,
    pushforward_measure,
    uniform_space,
)
from .pmeans import (
    Polarity,
    SignedP,
    ValueVector,
    exists_p,
    forall_p,
    kahan_sum,
    p_mean,
    p_sum,
    value_vector,
)
from .formulas import (
    Atom,
    BinOp,
    Const,
    Context,
    Div,
    Dual,
    Formula,
    Quant,
    Scalar,
    check_wellformed,
    format_formula,
    free_variables,
    parse,
    substitute,
    translate_formula,
)
from .environment import (
    AtomTable,
    Environment,
    environment_from_dict,
    environment_to_dict,
    load_environment,
    make_environment,
    save_environment,
    translate_environment,
)
from .semantics import (
    Predicate,
    Separator,
    add_quantifier,
    cast_predicate,
    definite_separator,
    eval_add,
    eval_mul,
    evaluate,
    inconsistent_separator,
    principal_separator,
    separator_cast,
    unitary_separator,
)
from .stats import (
    Distribution,
    EnergyFunction,
    argmax,
    distribution,
    energy_function,
    hill_diversity,
    log_likelihood,
    renyi_entropy,
    renyi_formula_path,
    shannon_entropy,
    softmax_formula_path,
    softmax_p,
)
from .entailment import (
    EntailmentReport,
    adjunction_check,
    canned_laxity_instances,
    canned_transitivity_witness,
    entails,
    laxity_check,
    pushforward_density,
    reflexivity_check,
    reindex_monotonicity_check,
    transitivity_search,
)

__version__ = "0.1.0"

# the public names above, without the submodules the imports bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
