# Runs one paper-reproduction main and compares its stdout byte for byte
# with a checked-in golden.  Invoked by ctest as
#   cmake -DEXE=<binary> -DGOLDEN=<expected.txt> -DACTUAL=<out.txt> -P compare_stdout.cmake
# On a mismatch the fresh output is left at ACTUAL, so
#   diff -u <GOLDEN> <ACTUAL>
# shows what moved.  To re-pin a main after an intended output change, run
# the binary and redirect its stdout over the golden.

foreach(var EXE GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${EXE}"
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}\n${stderr}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN}\n"
                      "fresh output: ${ACTUAL}\n"
                      "compare with: diff -u ${GOLDEN} ${ACTUAL}")
endif()
