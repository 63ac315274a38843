# Runs a command and fails unless it exits with one exact code — stricter
# than WILL_FAIL, which accepts any failure, including a crash.
#
#   cmake -DEXPECT_EXIT=2 "-DCMD=prog|--flag|value" -P expect_exit.cmake
#
# CMD separates its arguments with '|' so it survives add_test's list
# handling intact.
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit code ${EXPECT_EXIT}, got '${rc}'\n${err}")
endif()
