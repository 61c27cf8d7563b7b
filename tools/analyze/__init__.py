# The MIND semantic contract analyzer (docs/ANALYSIS.md).
#
# Modules:
#   suppress      the suppression grammar
#   cpp_lexer     C++ tokenizer
#   cpp_model     the semantic IR every frontend produces
#   cpp_parser    builtin frontend: declaration-level C++ parser (zero deps)
#   clang_frontend libclang frontend (preferred when python3-clang is present)
#   checks        the contract rules over the IR
#   analyze       CLI driver (tools/run_analyze.sh calls this)
