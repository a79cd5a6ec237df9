"""Exact-arithmetic workbench for n-Kronecker quiver representations.

Layers: exact linear algebra over GF(p) and the rationals (linalg); the
module category with Hom/Ext, the translate tau and bristle traces
(modules); length-two module machinery (bristles); named families
(families); tree covers and push-downs (cover); the module file parser
(modfile); and the scenario harness with its CLI (scenarios, report, cli).
"""

__version__ = "0.1.0"

from .linalg import GF, QQ, FieldSpec, Matrix, Subspace, kernel_basis, rref
from .modules import (
    KroneckerModule,
    Morphism,
    SubmodulePair,
    ar_translate,
    coxeter_apply,
    direct_sum,
    dual,
    end_dim,
    euler_form,
    ext1_dim,
    ext1_dim_via_resolution,
    find_isomorphism,
    hom_basis,
    hom_dim,
    is_faithful,
    is_generated_by,
    layers,
    quotient,
    zero_module,
)
from .bristles import (
    BristlePoint,
    bristle,
    bristle_point,
    canonical_set,
    enumerate_bristles,
    is_bristle_vector,
    is_bristled,
    is_saturated,
    maximal_bristled_submodule,
)
from .families import n2_bristle_generator, n2_preinjective, preinjective, preprojective
from .cover import CoverRep, build_ball_rep, build_mu_bristle_rep, build_tau_bristle_rep, push_down
from .modfile import ModuleFileError, parse_module_file
from .scenarios import ScenarioConfig, default_config, run_scenario
