"""scenelogic: a first-order-logic knowledge engine for dynamic road scenes.

Per-frame perception annotations are compiled into a sliding-window fact
base; questions are answered by sound inference over stratified rules; the
resulting facts and verdicts export as retrieval context for external
language models.
"""

from .fol import Const, Literal, Var, apply, unify, unify_terms
from .logicpad import RuleSet, default_ruleset, load_rule_file, parse_rule_file
from .inference import Answer, FactSet, ProofTrace, Query, answer_query, check_trace, resolve, saturate
from .geometry import CameraIntrinsics, Kinematics, Transform2, back_project, estimate_origin, kinematics, to_bev
from .scene import FrameObservation, ObjectObservation, SceneWindow, Sequence, load_annotation, windows
from .tracking import PresenceFlags, Trajectory, TrackerConfig, link_window, match_frames, presence
from .facts import CompilerConfig, WindowFacts, compile_window
from .questions import answer_to_text, parse_fol_query, parse_nl_question, parse_question, print_query
from .ragcontext import ContextPayload, TemplateTable, build_context, export_templates, template_table
from .evaluation import EvalReport, QAItem, evaluate, run_pipeline, run_scenario_dir

__version__ = "0.1.0"
