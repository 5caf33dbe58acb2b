# ctest script for `example_rejects_unknown_flag` (registered in
# tests/CMakeLists.txt): an example given a flag it does not know must print
# "example failed: ... unknown flag ..." and exit with code 1, not abort.
execute_process(
  COMMAND ${EXAMPLE} --bogus-flag
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_error)
if(NOT run_result STREQUAL "1")
  message(FATAL_ERROR
      "expected exit code 1, got '${run_result}':\n${run_output}${run_error}")
endif()
if(NOT run_error MATCHES "example failed: .*unknown flag --bogus-flag")
  message(FATAL_ERROR "missing 'example failed' message on stderr:\n"
                      "${run_error}")
endif()
