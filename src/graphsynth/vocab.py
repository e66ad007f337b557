"""Project vocabulary: every IRI the knowledge base and program graphs use.

Three namespaces keep concerns apart: `GS` holds classes and properties,
`KB` holds shipped individuals, and `ONTOLOGY` names the shipped files.
The abstract (PLA) and concrete (PLR) program vocabularies are deliberately
disjoint namespaces so graph separation is mechanically checkable.
"""

from __future__ import annotations

GS = "http://graphsynth.dev/vocab/core#"
KB = "http://graphsynth.dev/kb/"
ONTOLOGY = "http://graphsynth.dev/ontology/"
PLA = "http://graphsynth.dev/vocab/abstract#"
PLR = "http://graphsynth.dev/vocab/concrete#"

_GRAPH_BASE = "http://graphsynth.dev/graph/"
CORE_GRAPH = _GRAPH_BASE + "core"


def gs(local: str) -> str:
    return GS + local


def kb(local: str) -> str:
    return KB + local


def pla(local: str) -> str:
    return PLA + local


def plr(local: str) -> str:
    return PLR + local


def program_graph_iri(basename: str, kind: str) -> str:
    """Named graph for one built program representation ('pla' or 'plr')."""
    return f"{_GRAPH_BASE}{basename}-{kind}"


# --- classes -----------------------------------------------------------

DATA_SOURCE = gs("DataSource")
VALUE_DATATYPE = gs("ValueDatatype")
DATA_CONTENT_KIND = gs("DataContentKind")
ALGORITHM = gs("Algorithm")
CODE_FUNCTION = gs("CodeFunction")
ARGUMENT_SLOT = gs("ArgumentSlot")
LIBRARY = gs("Library")
PROGRAMMING_LANGUAGE = gs("ProgrammingLanguage")
LANGUAGE_FAMILY = gs("LanguageFamily")
PROGRAM_STRUCTURE = gs("ProgramStructure")
SECTION_SLOT = gs("SectionSlot")
PROGRAM_SECTION = gs("ProgramSection")
PROGRAM_REQUIREMENT = gs("ProgramRequirement")
READ_CAPABILITY = gs("ReadCapability")
NAMING_PATTERN = gs("NamingPattern")
STATEMENT_FORM = gs("StatementForm")
TEMPLATE_SLOT = gs("TemplateSlot")

# --- properties --------------------------------------------------------

HAS_NAME = gs("hasName")
HAS_CONTAINER = gs("hasContainer")
HAS_FORMAT = gs("hasFormat")
HAS_ENCODING = gs("hasEncoding")
HAS_VALUE_DATATYPE = gs("hasValueDatatype")
HAS_HEADER_ROW_COUNT = gs("hasHeaderRowCount")
HAS_DATA_ROW_COUNT = gs("hasDataRowCount")
HAS_VALUES_PER_ROW = gs("hasValuesPerRow")
HAS_QUANTITY_KIND = gs("hasQuantityKind")
HAS_LOCATION = gs("hasLocation")
HAS_CONTENT_KIND = gs("hasContentKind")
HAS_TYPE_LABEL = gs("hasTypeLabel")
IS_NUMERIC = gs("isNumeric")

HAS_OUTPUT_DESCRIPTION_LABEL = gs("hasOutputDescriptionLabel")
HAS_MIN_INPUT_COUNT = gs("hasMinInputCount")
REQUIRES_NUMERIC_INPUT = gs("requiresNumericInput")
REQUIRES_SAME_QUANTITY_KIND = gs("requiresSameQuantityKind")
HAS_OUTPUT_ARITY = gs("hasOutputArity")
HAS_OUTPUT_QUANTITY = gs("hasOutputQuantity")
HAS_TIME_COMPLEXITY = gs("hasTimeComplexity")

HAS_CALLABLE_NAME = gs("hasCallableName")
PROVIDED_BY = gs("providedBy")
IN_LANGUAGE = gs("inLanguage")
HAS_PURPOSE = gs("hasPurpose")
HAS_ARGUMENT_SLOT = gs("hasArgumentSlot")
HAS_SLOT_INDEX = gs("hasSlotIndex")
HAS_SLOT_ROLE = gs("hasSlotRole")
HAS_RETURN_ROLE = gs("hasReturnRole")
HAS_OFFICIAL_NAME = gs("hasOfficialName")
HAS_ALIAS = gs("hasAlias")
HAS_LIBRARY_KIND = gs("hasLibraryKind")
HAS_FAMILY_NAME = gs("hasFamilyName")
HAS_VERSION_TAG = gs("hasVersionTag")
IN_FAMILY = gs("inFamily")
HAS_SOURCE_FILE_EXTENSION = gs("hasSourceFileExtension")
HAS_PARADIGM = gs("hasParadigm")
HAS_STRING_LITERAL_QUOTE = gs("hasStringLiteralQuote")

HAS_SECTION_SLOT = gs("hasSectionSlot")
HAS_SECTION = gs("hasSection")
HAS_EMISSION_INDEX = gs("hasEmissionIndex")
HAS_COMPOSITION_INDEX = gs("hasCompositionIndex")
SATISFIES_REQUIREMENT = gs("satisfiesRequirement")
HAS_REQUIREMENT_LABEL = gs("hasRequirementLabel")
IMPLIES_RUNTIME_ACTION = gs("impliesRuntimeAction")

READS_FORMAT = gs("readsFormat")
READS_VALUE_DATATYPE = gs("readsValueDatatype")
READS_CONTAINER = gs("readsContainer")

HAS_PATTERN_ID = gs("hasPatternId")
HAS_LABEL_SEPARATOR = gs("hasLabelSeparator")
HAS_SUFFIX_LABEL = gs("hasSuffixLabel")

HAS_VARIATION_ID = gs("hasVariationId")
FOR_LANGUAGE_FAMILY = gs("forLanguageFamily")
HAS_TEMPLATE_SLOT = gs("hasTemplateSlot")
HAS_SLOT_TEXT = gs("hasSlotText")
HAS_SLOT_FIELD = gs("hasSlotField")

# --- shipped individuals -----------------------------------------------

ACTION_PROGRAM_EXIT = kb("action_program_exit")
ROLE_DATASOURCE_FILENAME = kb("role_datasource_filename")

# Naming pattern identifiers (values of HAS_PATTERN_ID)
PATTERN_LITERAL_IS_DATASOURCE_FILENAME = "literal-is-datasource-filename"
PATTERN_FILENAME_ARG_TO_READER = "datasource-filename-arg-to-reader"
PATTERN_ASSIGN_FUNCTION_RETURN = "assign-function-return"

# Statement form variation identifiers (values of HAS_VARIATION_ID)
VARIATION_IMPORT_PLAIN = "import-plain"
VARIATION_IMPORT_ALIASED = "import-aliased"
VARIATION_ASSIGN_EXPR = "assign-expr"
VARIATION_CALL_STMT = "call-stmt"
# The fields each variation is filled with, in fill order: a form of the
# variation has one field slot for each of them and no other.
VARIATION_FIELDS = {
    VARIATION_IMPORT_PLAIN: ("official_name",),
    VARIATION_IMPORT_ALIASED: ("official_name", "alias"),
    VARIATION_ASSIGN_EXPR: ("target", "expression"),
    VARIATION_CALL_STMT: ("callee", "arguments"),  # the argument texts, comma-joined
}

# Section names, in the fixed source-file emission order.
SECTION_PREAMBLE = "Preamble"
SECTION_INPUT = "Input"
SECTION_CALCULATE = "Calculate"
SECTION_OUTPUT = "Output"
SECTION_CLEANUP = "CleanUp"
EMISSION_ORDER = (SECTION_PREAMBLE, SECTION_INPUT, SECTION_CALCULATE, SECTION_OUTPUT, SECTION_CLEANUP)
COMPOSITION_ORDER = (SECTION_INPUT, SECTION_CALCULATE, SECTION_OUTPUT, SECTION_CLEANUP, SECTION_PREAMBLE)
