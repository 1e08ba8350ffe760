"""One config document for the whole pipeline, JSON-loadable with defaults.

Unknown fields are collected as warnings rather than errors; invalid values
raise ConfigError naming the dotted field and the violated constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .allocator import ALLOCATORS, McfParams, MnnParams
from .encoder import EncoderConfig
from .errors import (ConfigError, InvalidInputError, check_bounds, check_path,
                     from_section, read_json, section_dict)
from .matcher import MatcherParams
from .scene_graph import DEFAULT_D_TH, DEFAULT_N_MAX


@dataclass(frozen=True)
class EdgeParams:
    n_max: int = field(default=DEFAULT_N_MAX, metadata={"bound": ">= 1"})
    d_th: float = field(default=DEFAULT_D_TH, metadata={"bound": "> 0"})

    def __post_init__(self):
        check_bounds(self)


# The modes of `retrieval.rerank`.
RERANK_MODES = ("direct", "weighted")


@dataclass(frozen=True)
class RetrievalParams:
    allocator: str = "mnn"   # allocator used inside rerank
    rerank: str = "weighted"

    def __post_init__(self):
        for name, allowed in (("allocator", ALLOCATORS), ("rerank", RERANK_MODES)):
            if getattr(self, name) not in allowed:
                raise InvalidInputError(f"{name} must be {'|'.join(allowed)}, "
                                        f"got {getattr(self, name)}")


@dataclass(frozen=True)
class PipelineConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    matcher: MatcherParams = field(default_factory=MatcherParams)
    mnn: MnnParams = field(default_factory=MnnParams)
    mcf: McfParams = field(default_factory=McfParams)
    edges: EdgeParams = field(default_factory=EdgeParams)
    retrieval: RetrievalParams = field(default_factory=RetrievalParams)
    weights_path: str | None = None

    def to_dict(self) -> dict:
        """The config document: the `section_dict` of each params field,
        then `weights_path`."""
        return {f.name: section_dict(value) if is_dataclass(value := getattr(self, f.name))
                else value for f in fields(self)}


def config_from_dict(data: dict) -> tuple[PipelineConfig, list[str]]:
    """Merge a (possibly partial) document over defaults.

    Each params field of PipelineConfig is a section, read over its default
    by `from_section`; `weights_path` is the one plain field. The shape of
    the document (sections are objects, `weights_path` a string or null) is
    checked before any value. Returns (config, warnings); warnings list
    unknown fields.
    """
    defaults = PipelineConfig()
    given = {f.name: data.get(f.name, {}) for f in fields(PipelineConfig)
             if is_dataclass(getattr(defaults, f.name))}
    for name, section in given.items():
        if not isinstance(section, dict):
            raise ConfigError(name, "must be an object")
    weights_path = data.get("weights_path")
    if weights_path is not None and not isinstance(weights_path, str):
        raise ConfigError("weights_path", f"must be a string or null, got {weights_path!r}")
    sections: dict = {}
    warnings: list[str] = []
    for name, section in given.items():
        try:
            sections[name], unknown = from_section(getattr(defaults, name), section)
        except InvalidInputError as exc:
            raise ConfigError(name, str(exc)) from exc
        warnings += [f"unknown field {name}.{key}" for key in unknown]
    warnings += [f"unknown field {key}" for key in data
                 if key not in given and key != "weights_path"]
    return PipelineConfig(**sections, weights_path=weights_path), warnings


def load_config(path) -> tuple[PipelineConfig, list[str]]:
    check_path("path", path)
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top level must be an object")
    return config_from_dict(data)
