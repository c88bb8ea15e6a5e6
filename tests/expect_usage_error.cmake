# Runs EXE with the blank-separated arguments in ARGS and passes only when
# the program rejects them the way the example tools promise for malformed
# input: the usage line on stderr and exit code 2.
#
#   cmake -DEXE=<program> "-DARGS=<arguments>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${EXE} ${ARGS}: expected exit code 2, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${EXE} ${ARGS}: no usage line on stderr\n${err}")
endif()
