# Run one command and check what it produced.
#
#   cmake -DWORK_DIR=<dir> [-DEXIT=<n>] [-DMATCH=<regex>]
#         [-DGOLDEN=<outputs.txt>] [-DSTDOUT=<line>] [-DFILES=<f>,<f>...]
#         -P run.cmake -- <command> [<args>...]
#
# The command runs in WORK_DIR, emptied first, with stdout and stderr
# merged into WORK_DIR/output.txt. Its exit status must be EXIT (0 by
# default) and, given MATCH, its output must match that regex. With
# STDOUT, the output must equal the artifact of that name in GOLDEN;
# each file in FILES, written by the command in WORK_DIR, must equal
# the artifact named after the file. An artifact is a line
# "<name> <bytes> <sha256>". On a mismatch the outputs stay in
# WORK_DIR, and the message gives both digests and the line to paste
# into GOLDEN when the change is on purpose. Arguments may not
# contain ';' (CMake's list separator).

set(cmd "")
set(seen_sep FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
    if(seen_sep)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(seen_sep TRUE)
    endif()
endforeach()
if(NOT cmd OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DWORK_DIR=<dir> ... -P run.cmake "
            "-- <command> [<args>...]")
endif()
if(NOT DEFINED EXIT)
    set(EXIT 0)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(out "${WORK_DIR}/output.txt")
execute_process(COMMAND ${cmd} WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_FILE "${out}" ERROR_FILE "${out}"
                RESULT_VARIABLE status)
file(READ "${out}" text)
if(NOT status STREQUAL "${EXIT}")
    message(FATAL_ERROR "exit status ${status}, expected ${EXIT}; "
            "output:\n${text}")
endif()
if(DEFINED MATCH AND NOT text MATCHES "${MATCH}")
    message(FATAL_ERROR "output does not match '${MATCH}':\n${text}")
endif()

set(checks "")
if(STDOUT)
    list(APPEND checks "${STDOUT}=output.txt")
endif()
string(REPLACE "," ";" files "${FILES}")
foreach(f IN LISTS files)
    list(APPEND checks "${f}=${f}")
endforeach()
if(checks)
    file(STRINGS "${GOLDEN}" golden_lines REGEX "^[^#]")
endif()

set(failed FALSE)
foreach(check IN LISTS checks)
    string(REPLACE "=" ";" check "${check}")
    list(GET check 0 name)
    list(GET check 1 file)
    set(actual "<missing>")
    if(EXISTS "${WORK_DIR}/${file}")
        file(SIZE "${WORK_DIR}/${file}" bytes)
        file(SHA256 "${WORK_DIR}/${file}" digest)
        set(actual "${bytes} ${digest}")
    endif()
    set(expected "<no line>")
    foreach(line IN LISTS golden_lines)
        string(REPLACE " " ";" fields "${line}")
        list(POP_FRONT fields line_name)
        if(line_name STREQUAL name)
            list(JOIN fields " " expected)
        endif()
    endforeach()
    if(NOT actual STREQUAL expected)
        set(failed TRUE)
        message("golden: artifact '${name}' differs\n"
                "  expected: ${expected}\n"
                "  actual:   ${actual}\n"
                "  kept in:  ${WORK_DIR}/${file}\n"
                "  if the change is on purpose, replace its line in "
                "${GOLDEN} with:\n${name} ${actual}")
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "golden outputs differ (see above)")
endif()
