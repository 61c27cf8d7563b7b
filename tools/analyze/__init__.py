# The MIND semantic contract analyzer (docs/ANALYSIS.md).
#
# Modules:
#   suppress      the suppression grammar
#   cpp_lexer     C++ tokenizer
#   cpp_model     the semantic IR the parser produces
#   cpp_parser    declaration-level C++ parser (zero deps)
#   checks        the contract rules over the IR
#   analyze       CLI driver (tools/run_analyze.sh calls this)
